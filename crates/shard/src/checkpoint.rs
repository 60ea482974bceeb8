//! Driver-level checkpoint/resume for sharded runs.
//!
//! A checkpoint is a plain-text run directory:
//!
//! ```text
//! run-dir/
//!   meta.txt       header: graph fingerprint + run parameters
//!   parts.txt      the partition plan, one shard id per vertex line
//!   shard_<s>.ckpt one file per *completed* shard (written as each lands)
//! ```
//!
//! `meta.txt` pins the run identity — vertex/edge counts, total edge
//! weight, seed, shard count, and a partition-strategy tag. Resume refuses
//! directories whose identity does not match the live `(graph, config)`,
//! and re-reads `parts.txt` to make sure the plan is the same one the
//! completed shards were cut from. Shard files round-trip the membership
//! vector, block count, MDL, and cost account of one [`SbpResult`]; the
//! per-shard `RunStats` instrumentation is *not* persisted (a resumed run
//! reports timing only for the shards it actually re-ran — the stitched
//! partition and MDL are unaffected).
//!
//! Files are written through [`hsbp_core::atomic_write`] (temporary name,
//! fsync, rename), so a kill mid-write never leaves a torn shard file
//! behind.

use crate::runner::CostBasis;
use crate::{PartitionStrategy, ShardConfig};
use hsbp_collections::fnv::Fnv1a;
use hsbp_core::{atomic_write, HsbpError, RunStats, SbpResult};
use hsbp_graph::partition::{read_partition_file, write_partition_file};
use hsbp_graph::Graph;
use std::path::{Path, PathBuf};

const META_FILE: &str = "meta.txt";
const PARTS_FILE: &str = "parts.txt";
const FORMAT_HEADER: &str = "hsbp-shard-checkpoint v1";

/// One shard result loaded back from a checkpoint directory.
#[derive(Debug)]
pub struct LoadedShard {
    /// The reconstructed result (fresh, empty `RunStats`).
    pub result: SbpResult,
    /// The shard's recorded serial cost.
    pub cost: f64,
    /// Which account the cost came from.
    pub basis: CostBasis,
    /// Attempts the original run needed for this shard.
    pub attempts: usize,
}

/// A sharded-run checkpoint directory (see module docs for the layout).
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
}

fn ckpt_err(path: &Path, message: impl Into<String>) -> HsbpError {
    HsbpError::Checkpoint {
        path: path.display().to_string(),
        message: message.into(),
    }
}

/// Stable tag for the partition strategy, stored in `meta.txt`. External
/// partitions are fingerprinted (FNV-1a over the part ids) rather than
/// inlined — `parts.txt` holds the full plan either way. The hash folds
/// each part id in as one word ([`Fnv1a::word`]), so tags written by
/// earlier builds still match and their directories still resume.
fn strategy_tag(strategy: &PartitionStrategy) -> String {
    match strategy {
        PartitionStrategy::RoundRobin => "round-robin".to_string(),
        PartitionStrategy::DegreeBalanced => "degree-balanced".to_string(),
        PartitionStrategy::FromParts(parts) => {
            let mut hash = Fnv1a::new();
            for &p in parts {
                hash.word(u64::from(p));
            }
            format!("from-parts:{:016x}", hash.finish())
        }
    }
}

fn meta_content(graph: &Graph, cfg: &ShardConfig) -> String {
    format!(
        "{FORMAT_HEADER}\n\
         graph {} {} {}\n\
         seed {}\n\
         shards {}\n\
         strategy {}\n",
        graph.num_vertices(),
        graph.num_edges(),
        graph.total_weight(),
        cfg.sbp.seed,
        cfg.num_shards,
        strategy_tag(&cfg.strategy),
    )
}

impl Checkpoint {
    /// Open `dir` as a checkpoint for `(graph, cfg, parts)`, creating and
    /// initialising it when empty or absent. An existing directory must
    /// carry a matching `meta.txt` and an identical `parts.txt`; anything
    /// else is a [`HsbpError::Checkpoint`].
    pub fn open_or_create(
        dir: impl Into<PathBuf>,
        graph: &Graph,
        cfg: &ShardConfig,
        parts: &[u32],
    ) -> Result<Self, HsbpError> {
        let dir = dir.into();
        let meta_path = dir.join(META_FILE);
        let parts_path = dir.join(PARTS_FILE);
        let expected_meta = meta_content(graph, cfg);

        if meta_path.exists() {
            let found = std::fs::read_to_string(&meta_path)
                .map_err(|e| ckpt_err(&meta_path, format!("read: {e}")))?;
            if found != expected_meta {
                return Err(ckpt_err(
                    &meta_path,
                    "run identity mismatch (different graph, seed, shard count, \
                     or partition strategy); refusing to resume",
                ));
            }
            let stored = read_partition_file(&parts_path)
                .map_err(|e| ckpt_err(&parts_path, format!("read: {e}")))?;
            if stored != parts {
                return Err(ckpt_err(
                    &parts_path,
                    "stored partition plan differs from the live plan",
                ));
            }
        } else {
            std::fs::create_dir_all(&dir).map_err(|e| ckpt_err(&dir, format!("create: {e}")))?;
            write_partition_file(parts, &parts_path)
                .map_err(|e| ckpt_err(&parts_path, format!("write: {e}")))?;
            // Meta is written last: its presence marks an initialised
            // directory.
            atomic_write(
                &meta_path,
                expected_meta.as_bytes(),
                true,
                || true,
                ckpt_err,
            )?;
        }
        Ok(Self { dir })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard_{shard}.ckpt"))
    }

    /// Persist one completed shard. Called by the supervisor as each shard
    /// lands, so a later kill only loses in-flight shards.
    pub fn save_shard(
        &self,
        shard: usize,
        result: &SbpResult,
        cost: f64,
        basis: CostBasis,
        attempts: usize,
    ) -> Result<(), HsbpError> {
        let basis_tag = match basis {
            CostBasis::Simulated => "sim",
            CostBasis::WallClock => "wall",
            CostBasis::Missing => "missing",
        };
        let assignment = result
            .assignment
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        // `{:?}` prints the shortest f64 representation that round-trips.
        let content = format!(
            "shard {shard} blocks {} attempts {attempts}\n\
             cost {:?} {basis_tag}\n\
             mdl {:?} {:?} {:?} {:?}\n\
             assignment {assignment}\n",
            result.num_blocks,
            cost,
            result.mdl.log_likelihood,
            result.mdl.model_complexity,
            result.mdl.total,
            result.normalized_mdl,
        );
        atomic_write(
            &self.shard_path(shard),
            content.as_bytes(),
            true,
            || true,
            ckpt_err,
        )
    }

    /// Load shard `shard` if its checkpoint file exists. `expected_n` is
    /// the shard subgraph's vertex count; a stored membership vector of any
    /// other length fails. `cfg` seeds the fresh (empty) `RunStats`.
    pub fn load_shard(
        &self,
        shard: usize,
        expected_n: usize,
        cfg: &ShardConfig,
    ) -> Result<Option<LoadedShard>, HsbpError> {
        let path = self.shard_path(shard);
        if !path.exists() {
            return Ok(None);
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| ckpt_err(&path, format!("read: {e}")))?;
        let parse = |what: &str| ckpt_err(&path, format!("malformed shard file: {what}"));

        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| parse("missing header"))?;
        let mut h = header.split_whitespace();
        let expect_kv =
            |key: &str, it: &mut std::str::SplitWhitespace<'_>| -> Result<String, HsbpError> {
                match (it.next(), it.next()) {
                    (Some(k), Some(v)) if k == key => Ok(v.to_string()),
                    _ => Err(parse(&format!("expected `{key} <value>`"))),
                }
            };
        let stored_shard: usize = expect_kv("shard", &mut h)?
            .parse()
            .map_err(|_| parse("bad shard index"))?;
        if stored_shard != shard {
            return Err(parse(&format!(
                "file for shard {stored_shard} stored under shard {shard}"
            )));
        }
        let num_blocks: usize = expect_kv("blocks", &mut h)?
            .parse()
            .map_err(|_| parse("bad block count"))?;
        let attempts: usize = expect_kv("attempts", &mut h)?
            .parse()
            .map_err(|_| parse("bad attempt count"))?;

        let cost_line = lines.next().ok_or_else(|| parse("missing cost line"))?;
        let mut c = cost_line.split_whitespace();
        let cost: f64 = expect_kv("cost", &mut c)?
            .parse()
            .map_err(|_| parse("bad cost"))?;
        let basis = match c.next() {
            Some("sim") => CostBasis::Simulated,
            Some("wall") => CostBasis::WallClock,
            Some("missing") => CostBasis::Missing,
            _ => return Err(parse("bad cost basis")),
        };

        let mdl_line = lines.next().ok_or_else(|| parse("missing mdl line"))?;
        let mut m = mdl_line.split_whitespace();
        if m.next() != Some("mdl") {
            return Err(parse("expected `mdl` line"));
        }
        let mut next_f64 = |what: &str| -> Result<f64, HsbpError> {
            m.next()
                .ok_or_else(|| parse(what))?
                .parse()
                .map_err(|_| parse(what))
        };
        let ll = next_f64("bad mdl log-likelihood")?;
        let mc = next_f64("bad mdl model-complexity")?;
        let total = next_f64("bad mdl total")?;
        let normalized = next_f64("bad normalized mdl")?;

        let assign_line = lines.next().ok_or_else(|| parse("missing assignment"))?;
        let mut a = assign_line.split_whitespace();
        if a.next() != Some("assignment") {
            return Err(parse("expected `assignment` line"));
        }
        let mut assignment = Vec::with_capacity(expected_n);
        for tok in a {
            let b: u32 = tok.parse().map_err(|_| parse("bad block id"))?;
            assignment.push(b);
        }
        if assignment.len() != expected_n {
            return Err(parse(&format!(
                "assignment covers {} vertices, shard has {expected_n}",
                assignment.len()
            )));
        }
        if expected_n > 0 && (num_blocks == 0 || num_blocks > expected_n) {
            return Err(parse(&format!(
                "block count {num_blocks} outside 1..={expected_n}"
            )));
        }
        if assignment.iter().any(|&b| b as usize >= num_blocks.max(1)) && expected_n > 0 {
            return Err(parse("block id out of range"));
        }

        let result = SbpResult {
            assignment,
            num_blocks,
            mdl: hsbp_blockmodel::mdl::Mdl {
                log_likelihood: ll,
                model_complexity: mc,
                total,
            },
            normalized_mdl: normalized,
            trajectory: Vec::new(),
            stats: RunStats::new(&cfg.sbp),
        };
        Ok(Some(LoadedShard {
            result,
            cost,
            basis,
            attempts,
        }))
    }

    /// Shard indices with a completed checkpoint file on disk.
    pub fn completed_shards(&self, num_shards: usize) -> Vec<usize> {
        (0..num_shards)
            .filter(|&s| self.shard_path(s).exists())
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::partition::partition_graph;
    use hsbp_graph::Vertex;

    fn tiny_graph() -> Graph {
        let edges: Vec<(Vertex, Vertex)> =
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)];
        Graph::from_edges(6, &edges)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsbp-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_files_roundtrip() {
        let g = tiny_graph();
        let cfg = ShardConfig {
            num_shards: 2,
            ..Default::default()
        };
        let plan = partition_graph(&g, 2, &cfg.strategy);
        let dir = tmpdir("roundtrip");
        let ckpt = Checkpoint::open_or_create(&dir, &g, &cfg, &plan.parts).unwrap();
        assert!(ckpt.load_shard(0, 3, &cfg).unwrap().is_none());

        let (results, scaling) = crate::runner::run_shards(&plan, &cfg);
        ckpt.save_shard(
            0,
            &results[0],
            scaling.per_shard_cost[0],
            scaling.per_shard_basis[0],
            2,
        )
        .unwrap();
        let loaded = ckpt
            .load_shard(0, plan.shards[0].graph.num_vertices(), &cfg)
            .unwrap()
            .expect("saved shard loads");
        assert_eq!(loaded.result.assignment, results[0].assignment);
        assert_eq!(loaded.result.num_blocks, results[0].num_blocks);
        assert_eq!(loaded.result.mdl.total, results[0].mdl.total);
        assert_eq!(loaded.cost, scaling.per_shard_cost[0]);
        assert_eq!(loaded.basis, scaling.per_shard_basis[0]);
        assert_eq!(loaded.attempts, 2);
        assert_eq!(ckpt.completed_shards(2), vec![0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_identity_is_refused() {
        let g = tiny_graph();
        let cfg = ShardConfig {
            num_shards: 2,
            ..Default::default()
        };
        let plan = partition_graph(&g, 2, &cfg.strategy);
        let dir = tmpdir("identity");
        Checkpoint::open_or_create(&dir, &g, &cfg, &plan.parts).unwrap();

        let mut other = cfg.clone();
        other.sbp.seed = cfg.sbp.seed.wrapping_add(1);
        match Checkpoint::open_or_create(&dir, &g, &other, &plan.parts) {
            Err(HsbpError::Checkpoint { .. }) => {}
            other => panic!("expected checkpoint mismatch, got {other:?}"),
        }
        // Same identity reopens fine.
        Checkpoint::open_or_create(&dir, &g, &cfg, &plan.parts).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_shard_file_is_rejected() {
        let g = tiny_graph();
        let cfg = ShardConfig {
            num_shards: 2,
            ..Default::default()
        };
        let plan = partition_graph(&g, 2, &cfg.strategy);
        let dir = tmpdir("torn");
        let ckpt = Checkpoint::open_or_create(&dir, &g, &cfg, &plan.parts).unwrap();
        std::fs::write(dir.join("shard_1.ckpt"), "shard 1 blocks").unwrap();
        assert!(matches!(
            ckpt.load_shard(1, 3, &cfg),
            Err(HsbpError::Checkpoint { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
