//! Workload inputs, each a pure function of the workload seed: the DCSBM
//! graphs of the detect and shard workloads and the serve client traffic.
//! The benchmark owns the traffic generator, so edits elsewhere in the
//! repository cannot change a workload unnoticed; the self-tests pin every
//! generator by fingerprint.

use hsbp_collections::SplitMix64;
use hsbp_generator::{generate, DcsbmConfig, GeneratedGraph};
use hsbp_graph::Graph;
use std::collections::BTreeSet;

/// Size of a generated DCSBM input (other generator knobs at defaults).
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    pub vertices: usize,
    pub communities: usize,
    pub edges: usize,
}

/// `sbp_serial` and `shard_exact_drop`: the sparse graphs.
pub const SPARSE_700: GraphSpec = GraphSpec {
    vertices: 700,
    communities: 8,
    edges: 7_000,
};

/// `hsbp_dense_2t`: rows three times longer than [`SPARSE_700`]'s.
pub const DENSE_600: GraphSpec = GraphSpec {
    vertices: 600,
    communities: 6,
    edges: 18_000,
};

/// Seed of graph `g` of a run with seed `seed` (SplitMix64's output mix
/// over the pair). The benchmark keeps its own mix, like its own hash, so
/// that no change elsewhere can change which graphs a seed draws.
pub fn graph_seed(seed: u64, g: usize) -> u64 {
    let mut z = seed ^ (g as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generate the DCSBM input of `spec` for `seed`.
pub fn graph(spec: GraphSpec, seed: u64) -> GeneratedGraph {
    generate(DcsbmConfig {
        num_vertices: spec.vertices,
        num_communities: spec.communities,
        target_num_edges: spec.edges,
        seed,
        ..Default::default()
    })
}

/// FNV-1a, the fingerprint every input and output check uses. The
/// benchmark keeps its own copy: a change to a hash in the crates under
/// test must not silently change the pinned fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a labelling (assignments, planted truth).
pub fn labels_fingerprint(labels: &[u32]) -> u64 {
    let mut h = Fnv::default();
    h.u64(labels.len() as u64);
    for &l in labels {
        h.u64(u64::from(l));
    }
    h.finish()
}

/// Fingerprint of a graph's CSR edges plus its planted truth.
pub fn graph_fingerprint(graph: &Graph, truth: &[u32]) -> u64 {
    let mut h = Fnv::default();
    h.u64(graph.num_vertices() as u64);
    for (u, v, w) in graph.edges() {
        h.u64(u64::from(u)).u64(u64::from(v)).u64(w);
    }
    h.u64(labels_fingerprint(truth));
    h.finish()
}

/// Shape of the serve client traffic.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// Mutation/read rounds.
    pub rounds: usize,
    /// Edges per mutation batch.
    pub batch_size: usize,
    /// Read requests per round.
    pub reads_per_round: usize,
    /// Every this-many-th round retracts edges instead of adding them.
    pub remove_every: usize,
}

/// The serve leg of every traced run: churn over the workload's own
/// vertices.
pub const SERVE_LEG: TrafficSpec = TrafficSpec {
    rounds: 100,
    batch_size: 150,
    reads_per_round: 100,
    remove_every: 4,
};

/// A read request and the op it exercises (index into
/// [`crate::catalog::READ_OPS`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    pub op: usize,
    pub line: String,
}

/// One round: a single mutation batch line, then reads, then a flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    pub mutation: String,
    /// Edges the batch adds or retracts.
    pub edges: usize,
    pub reads: Vec<Read>,
}

/// Literal protocol lines: nothing is left to randomness at replay time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    pub rounds: Vec<Round>,
}

impl Traffic {
    /// Generate traffic over vertices `0..groups.len()` whose added edges
    /// are 85% within the planted `groups`, so refinement has structure to
    /// track. Every `remove_every`-th round retracts edges an earlier round
    /// added, so each batch is one request and valid on its own.
    pub fn generate(spec: TrafficSpec, groups: &[u32], seed: u64) -> Self {
        let n = groups.len() as u64;
        let num_groups = groups.iter().max().map_or(1, |&g| g + 1);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_groups as usize];
        for (v, &g) in groups.iter().enumerate() {
            members[g as usize].push(v as u32);
        }
        // Edges present in the daemon's graph, in insertion order (removal
        // deletes the whole edge, whatever its accumulated weight).
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut live_set: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut rounds = Vec::with_capacity(spec.rounds);
        for round in 0..spec.rounds {
            let mut rng = SplitMix64::for_item(seed, 0x4348_5552_4e00, round as u64); // "CHURN"
            let removing =
                spec.remove_every > 0 && round % spec.remove_every == spec.remove_every - 1;
            let mut items = Vec::with_capacity(spec.batch_size);
            if removing {
                for _ in 0..spec.batch_size.min(live.len()) {
                    let idx = rng.next_below(live.len() as u64) as usize;
                    let (u, v) = live.swap_remove(idx);
                    live_set.remove(&(u, v));
                    items.push(format!("[{u},{v}]"));
                }
            } else {
                while items.len() < spec.batch_size {
                    let u = rng.next_below(n) as u32;
                    let group = &members[groups[u as usize] as usize];
                    let v = if rng.next_below(100) < 85 {
                        group[rng.next_below(group.len() as u64) as usize]
                    } else {
                        rng.next_below(n) as u32
                    };
                    if u == v {
                        continue;
                    }
                    let w = 1 + rng.next_below(3);
                    if live_set.insert((u, v)) {
                        live.push((u, v));
                    }
                    items.push(format!("[{u},{v},{w}]"));
                }
            }
            let op = if removing {
                "remove_edges"
            } else {
                "add_edges"
            };
            let mutation = format!("{{\"op\":\"{op}\",\"edges\":[{}]}}", items.join(","));
            let reads = (0..spec.reads_per_round)
                .map(|r| match r % 3 {
                    0 => {
                        let ids: Vec<String> =
                            (0..8).map(|_| rng.next_below(n).to_string()).collect();
                        Read {
                            op: 0,
                            line: format!(
                                "{{\"op\":\"membership\",\"vertices\":[{}]}}",
                                ids.join(",")
                            ),
                        }
                    }
                    1 => Read {
                        op: 1,
                        line: "{\"op\":\"mdl\"}".into(),
                    },
                    _ => Read {
                        op: 2,
                        line: "{\"op\":\"block_stats\"}".into(),
                    },
                })
                .collect();
            rounds.push(Round {
                mutation,
                edges: items.len(),
                reads,
            });
        }
        Traffic { rounds }
    }

    /// Fingerprint of every request line, in replay order (pins the
    /// generator in the self-tests).
    #[cfg(test)]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for round in &self.rounds {
            h.bytes(round.mutation.as_bytes()).bytes(b"\n");
            for read in &round.reads {
                h.bytes(read.line.as_bytes()).bytes(b"\n");
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsbp_serve::json::parse;
    use hsbp_serve::Request;

    /// Fingerprints of every workload input at seed 1. A change here means
    /// the workload changed: later runs are not comparable with earlier ones.
    #[test]
    fn generators_are_pinned_pure_functions_of_the_seed() {
        let graphs_fingerprint = |spec: GraphSpec, seed: u64| {
            let mut h = Fnv::default();
            for g in 0..crate::workloads::GRAPHS {
                let d = graph(spec, graph_seed(seed, g));
                h.u64(graph_fingerprint(&d.graph, &d.ground_truth));
            }
            h.finish()
        };
        for (spec, pinned) in [
            (SPARSE_700, 0xd4270652f7f3812au64),
            (DENSE_600, 0xa8ae028753c96618),
        ] {
            let fa = graphs_fingerprint(spec, 1);
            assert_eq!(fa, graphs_fingerprint(spec, 1));
            assert_eq!(fa, pinned, "inputs of {spec:?} changed: {fa:#x}");
            assert_ne!(fa, graphs_fingerprint(spec, 2));
        }
        let seeds: Vec<u64> = (0..crate::workloads::GRAPHS)
            .map(|g| graph_seed(1, g))
            .collect();
        let distinct: BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "graph seeds collide");
        let groups = graph(SPARSE_700, graph_seed(1, 0)).ground_truth;
        let t = Traffic::generate(SERVE_LEG, &groups, 1);
        assert_eq!(t, Traffic::generate(SERVE_LEG, &groups, 1));
        assert_eq!(
            t.fingerprint(),
            0xdc5af9106803736b,
            "serve traffic changed: {:#x}",
            t.fingerprint()
        );
        assert_ne!(
            t.fingerprint(),
            Traffic::generate(SERVE_LEG, &groups, 2).fingerprint()
        );
    }

    #[test]
    fn traffic_is_valid_protocol_with_full_batches() {
        let t = Traffic::generate(SERVE_LEG, &graph(DENSE_600, 7).ground_truth, 7);
        assert_eq!(t.rounds.len(), SERVE_LEG.rounds);
        for round in &t.rounds {
            assert_eq!(round.edges, SERVE_LEG.batch_size);
            assert_eq!(round.reads.len(), SERVE_LEG.reads_per_round);
            let lines = std::iter::once(&round.mutation).chain(round.reads.iter().map(|r| &r.line));
            for line in lines {
                Request::parse(&parse(line).expect("json")).expect("protocol request");
            }
        }
    }
}
