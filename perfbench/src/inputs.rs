//! The benchmark's inputs — root sets and query streams — generated from
//! the run's seed by the benchmark's own code, and fingerprinted.
//!
//! A run fails when a fingerprint differs from the one pinned here: the
//! golden check regenerates a small canonical graph and its inputs on
//! every run (so a generator or sampler change fails at any seed), and
//! `fingerprints.txt` pins the full-size inputs of the seeds it lists.

use sembfs_csr::{build_csr, BuildOptions, CsrGraph};
use sembfs_graph500::{KroneckerParams, MemEdgeList, VertexId};
use sembfs_query::Query;

use crate::util::{digest, Fnv, Rng};

/// Random streams, one per purpose, so adding one never shifts another.
const ROOT_STREAM: u64 = 1;
const QUERY_STREAM: u64 = 2;

/// Digest of an edge list, in generation order.
pub fn edge_digest(edges: &MemEdgeList) -> u64 {
    let mut h = Fnv::default();
    for &(u, v) in edges.as_slice() {
        h.word(u);
        h.word(v);
    }
    h.finish()
}

/// `count` distinct search roots with nonzero degree, stratified by
/// degree: the vertices with edges, ranked by (degree, id), are cut into
/// `count` equal strata and one root is drawn uniformly from each, then
/// the roots are shuffled. How long a search takes depends mostly on its
/// number of levels, which the root's degree predicts; one root per
/// stratum keeps the mix of short and long searches the same from seed to
/// seed, and the shuffle keeps a window that ends inside a pass from
/// favouring either end of it.
pub fn roots(csr: &CsrGraph, count: usize, seed: u64) -> Vec<VertexId> {
    let mut ranked: Vec<VertexId> = (0..csr.num_vertices() as VertexId)
        .filter(|&v| csr.degree(v) > 0)
        .collect();
    assert!(
        ranked.len() >= count,
        "fewer vertices with edges than roots"
    );
    ranked.sort_by_key(|&v| (csr.degree(v), v));
    let mut rng = Rng::new(seed, ROOT_STREAM);
    let n = ranked.len() as u64;
    let strata = count as u64;
    let mut roots: Vec<VertexId> = (0..strata)
        .map(|i| {
            let (lo, hi) = (i * n / strata, (i + 1) * n / strata);
            ranked[(lo + rng.below(hi - lo)) as usize]
        })
        .collect();
    for j in (1..roots.len()).rev() {
        roots.swap(j, rng.below(j as u64 + 1) as usize);
    }
    roots
}

/// Zipf(θ = 1) popularity over the `support` highest-degree vertices
/// (ties broken by id), sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    ranked: Vec<VertexId>,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank the graph's vertices by degree and keep the top `support`.
    pub fn by_degree(csr: &CsrGraph, support: usize) -> Self {
        let mut ranked: Vec<VertexId> = (0..csr.num_vertices() as VertexId).collect();
        ranked.sort_by_key(|&v| (std::cmp::Reverse(csr.degree(v)), v));
        ranked.truncate(support.max(1));
        let mut total = 0.0;
        let cdf = (1..=ranked.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Self { ranked, cdf }
    }

    /// Draw one vertex.
    pub fn sample(&self, rng: &mut Rng) -> VertexId {
        let total = *self.cdf.last().expect("non-empty support");
        let x = rng.unit() * total;
        let i = self.cdf.partition_point(|&c| c < x);
        self.ranked[i.min(self.ranked.len() - 1)]
    }
}

/// Depth of the neighborhood probes.
pub const NEIGHBORHOOD_DEPTH: u32 = 2;

/// A stream of `count` point queries: 50 % shortest path, 40 %
/// reachability and 10 % depth-2 neighborhood, endpoints drawn from
/// `zipf`. Every block of ten queries holds exactly that mix, shuffled,
/// so the mix of a window does not vary with the seed.
pub fn queries(zipf: &Zipf, count: usize, seed: u64) -> Vec<Query> {
    const BLOCK: [u8; 10] = [0, 0, 0, 0, 0, 1, 1, 1, 1, 2];
    let mut rng = Rng::new(seed, QUERY_STREAM);
    let mut block = BLOCK;
    (0..count)
        .map(|i| {
            if i % BLOCK.len() == 0 {
                for j in (1..block.len()).rev() {
                    block.swap(j, rng.below(j as u64 + 1) as usize);
                }
            }
            let src = zipf.sample(&mut rng);
            match block[i % BLOCK.len()] {
                0 => Query::ShortestPath {
                    src,
                    dst: zipf.sample(&mut rng),
                },
                1 => Query::Reachable {
                    src,
                    dst: zipf.sample(&mut rng),
                },
                _ => Query::Neighborhood {
                    v: src,
                    depth: NEIGHBORHOOD_DEPTH,
                },
            }
        })
        .collect()
}

/// Queries a stream's fingerprint covers: a prefix, so that the pinned
/// fingerprint does not depend on the window's length.
pub const QUERY_FINGERPRINT_PREFIX: usize = 2000;

/// Digest of a query stream.
pub fn queries_digest(queries: &[Query]) -> u64 {
    let mut h = Fnv::default();
    for q in queries {
        match *q {
            Query::ShortestPath { src, dst } => h.words(&[0, src, dst]),
            Query::Distance { src, dst } => h.words(&[1, src, dst]),
            Query::Reachable { src, dst } => h.words(&[2, src, dst]),
            Query::Neighborhood { v, depth } => h.words(&[3, v, depth]),
        }
    }
    h.finish()
}

/// Canonical small inputs regenerated on every run.
const GOLDEN_SCALE: u32 = 10;
const GOLDEN_SEED: u64 = 1;
/// Their pinned fingerprints: (edges, roots, queries).
pub const GOLDEN: (u64, u64, u64) = (
    0x7318_c6de_e57a_299f,
    0x9092_48cd_f062_9bbb,
    0x5d8c_4fc3_9486_b7cd,
);

/// Fingerprints of the canonical small inputs.
pub fn golden_fingerprints() -> (u64, u64, u64) {
    let edges = KroneckerParams::graph500(GOLDEN_SCALE, GOLDEN_SEED).generate();
    let csr = build_csr(
        &edges,
        BuildOptions {
            drop_self_loops: false,
            sort_neighbors: true,
            chunk_edges: 1 << 16,
        },
    )
    .expect("in-memory CSR build");
    let zipf = Zipf::by_degree(&csr, 64);
    (
        edge_digest(&edges),
        digest(&roots(&csr, 8, GOLDEN_SEED)),
        queries_digest(&queries(&zipf, 256, GOLDEN_SEED)),
    )
}

/// Pinned full-size fingerprints: `(workload, seed) -> (edges, inputs)`.
const PINNED: &str = include_str!("../fingerprints.txt");

/// The pinned fingerprints of `workload` at `seed`, if listed.
pub fn pinned(workload: &str, seed: u64) -> Option<(u64, u64)> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, e, i] if *w == workload && s.parse() == Ok(seed) => Some((
                    u64::from_str_radix(e, 16).ok()?,
                    u64::from_str_radix(i, 16).ok()?,
                )),
                _ => None,
            }
        })
}

/// Compare this run's fingerprints with the pinned ones (full-size runs
/// only; `fingerprints.txt` lists full-size inputs); returns the violated
/// checks.
pub fn check_fingerprints(
    workload: &str,
    seed: u64,
    full_size: bool,
    edges: u64,
    inputs: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let golden = golden_fingerprints();
    if golden != GOLDEN {
        problems.push(format!(
            "canonical inputs changed: fingerprints {:016x} {:016x} {:016x}, pinned {:016x} {:016x} {:016x}",
            golden.0, golden.1, golden.2, GOLDEN.0, GOLDEN.1, GOLDEN.2
        ));
    }
    if let Some((e, i)) = pinned(workload, seed).filter(|_| full_size) {
        if (e, i) != (edges, inputs) {
            problems.push(format!(
                "{workload} seed {seed} inputs changed: {edges:016x} {inputs:016x}, pinned {e:016x} {i:016x}"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_fingerprints_are_checked_for_full_size_runs() {
        let (e, i) = pinned("query-flash-starved", 1).expect("seed 1 is pinned");
        assert!(check_fingerprints("query-flash-starved", 1, true, e, i).is_empty());
        assert_eq!(
            check_fingerprints("query-flash-starved", 1, true, e, 0).len(),
            1
        );
        assert!(check_fingerprints("query-flash-starved", 1, false, e, 0).is_empty());
    }
}
