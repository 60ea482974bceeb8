//! `HsbpError` — the workspace's typed error layer.
//!
//! Input-handling and orchestration paths (graph/partition I/O, the sharded
//! driver, checkpoint/resume) return this instead of panicking, so callers —
//! the CLI in particular — can map failures to diagnostics and exit codes
//! without unwinding. Algorithm internals keep their panics: an inconsistent
//! blockmodel mid-sweep is a bug, not an input problem.
//!
//! [`atomic_write`] lives here too: every file the workspace persists
//! (checkpoint and serve-state files, the rewritten WAL) goes through it
//! and reports failures as the caller's `HsbpError` variant.

use hsbp_graph::io::IoError;
use std::io::Write;
use std::path::Path;

/// Recoverable failure of an SBP pipeline entry point.
#[derive(Debug)]
pub enum HsbpError {
    /// A configuration failed validation before any work started.
    InvalidConfig(String),
    /// Graph or partition file I/O failed (wraps the reader's error with the
    /// offending path when known).
    Io {
        /// Path being read or written, if the failure came from a file.
        path: Option<String>,
        /// The underlying reader/stream error.
        source: IoError,
    },
    /// An externally supplied vertex partition does not match the graph.
    PartitionMismatch {
        /// Entries in the partition.
        partition_len: usize,
        /// Vertices in the graph.
        num_vertices: usize,
    },
    /// A shard exhausted its retry budget and degradation was not possible
    /// (or was disabled).
    ShardFailed {
        /// Shard index.
        shard: usize,
        /// Attempts made (first run + retries).
        attempts: usize,
        /// Human-readable description of the last failure.
        last_failure: String,
    },
    /// Every shard of a sharded run failed permanently; there is no
    /// surviving sub-model to degrade onto.
    AllShardsFailed {
        /// Shards in the plan.
        num_shards: usize,
    },
    /// A checkpoint directory was missing, malformed, or belongs to a
    /// different `(graph, config)` run.
    Checkpoint {
        /// Checkpoint directory (or file within it).
        path: String,
        /// What went wrong.
        message: String,
    },
    /// A post-shard invariant check rejected a result (corrupted membership
    /// vector, bad block count, lost edges).
    InvariantViolation {
        /// Shard index the result came from.
        shard: usize,
        /// Which invariant failed.
        message: String,
    },
    /// The serve daemon's write-ahead log could not be written, synced, or
    /// replayed (a non-WAL file at the path, an append that could not be
    /// made durable before acknowledgement).
    Wal {
        /// WAL file path.
        path: String,
        /// What went wrong.
        message: String,
    },
    /// A network endpoint failed: the serve listener could not bind, a
    /// connection died mid-request, or a harness client could not reach the
    /// daemon.
    Network {
        /// Address involved (bind address or peer), when known.
        addr: String,
        /// What went wrong, including the OS error text.
        message: String,
    },
    /// A strict-mode drift audit found the incrementally-maintained
    /// blockmodel diverging from the state implied by the membership
    /// vector. In repair mode the same divergence is fixed in place and
    /// recorded in `RunStats::drift_events` instead.
    StateDrift {
        /// Cumulative MCMC sweep at which the audit fired.
        sweep: usize,
        /// Summary of the mismatched components and the MDL delta.
        detail: String,
    },
}

impl std::fmt::Display for HsbpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HsbpError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            HsbpError::Io {
                path: Some(p),
                source,
            } => write!(f, "{p}: {source}"),
            HsbpError::Io { path: None, source } => write!(f, "{source}"),
            HsbpError::PartitionMismatch {
                partition_len,
                num_vertices,
            } => write!(
                f,
                "partition covers {partition_len} vertices but the graph has {num_vertices}"
            ),
            HsbpError::ShardFailed {
                shard,
                attempts,
                last_failure,
            } => write!(
                f,
                "shard {shard} failed permanently after {attempts} attempt(s): {last_failure}"
            ),
            HsbpError::AllShardsFailed { num_shards } => {
                write!(f, "all {num_shards} shard(s) failed; nothing to stitch")
            }
            HsbpError::Checkpoint { path, message } => {
                write!(f, "checkpoint {path}: {message}")
            }
            HsbpError::InvariantViolation { shard, message } => {
                write!(f, "shard {shard} produced an invalid result: {message}")
            }
            HsbpError::Wal { path, message } => {
                write!(f, "wal {path}: {message}")
            }
            HsbpError::Network { addr, message } => {
                write!(f, "network error on {addr}: {message}")
            }
            HsbpError::StateDrift { sweep, detail } => {
                write!(f, "state drift detected at sweep {sweep}: {detail}")
            }
        }
    }
}

impl std::error::Error for HsbpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HsbpError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<IoError> for HsbpError {
    fn from(source: IoError) -> Self {
        HsbpError::Io { path: None, source }
    }
}

impl From<std::io::Error> for HsbpError {
    fn from(e: std::io::Error) -> Self {
        HsbpError::Io {
            path: None,
            source: IoError::Io(e),
        }
    }
}

impl HsbpError {
    /// Attach (or replace) the file path on an I/O-backed error.
    pub fn with_path(self, path: impl Into<String>) -> Self {
        match self {
            HsbpError::Io { source, .. } => HsbpError::Io {
                path: Some(path.into()),
                source,
            },
            other => other,
        }
    }
}

/// Write `bytes` to `path` through a temporary sibling (`path` with the
/// extension `tmp`) that is renamed into place, so readers never observe a
/// half-written file. `sync` fsyncs the temporary file before the rename.
/// `before_rename` runs between the write and the rename; returning `false`
/// skips the rename, as a crash at that point would (a fault-injection
/// hook; pass `|| true` otherwise). `err` builds the caller's error from
/// the failing path and a message.
pub fn atomic_write(
    path: &Path,
    bytes: &[u8],
    sync: bool,
    before_rename: impl FnOnce() -> bool,
    err: impl Fn(&Path, String) -> HsbpError,
) -> Result<(), HsbpError> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp).map_err(|e| err(&tmp, format!("create: {e}")))?;
    file.write_all(bytes)
        .and_then(|()| if sync { file.sync_all() } else { Ok(()) })
        .map_err(|e| err(&tmp, format!("write: {e}")))?;
    drop(file);
    if !before_rename() {
        return Ok(());
    }
    std::fs::rename(&tmp, path).map_err(|e| err(path, format!("rename: {e}")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line() {
        let errors: Vec<HsbpError> = vec![
            HsbpError::InvalidConfig("num_shards must be at least 1".into()),
            HsbpError::from(IoError::Parse {
                line: 3,
                message: "bad token".into(),
            })
            .with_path("graph.mtx"),
            HsbpError::PartitionMismatch {
                partition_len: 10,
                num_vertices: 12,
            },
            HsbpError::ShardFailed {
                shard: 2,
                attempts: 3,
                last_failure: "injected panic".into(),
            },
            HsbpError::AllShardsFailed { num_shards: 4 },
            HsbpError::Checkpoint {
                path: "/tmp/run".into(),
                message: "graph fingerprint mismatch".into(),
            },
            HsbpError::InvariantViolation {
                shard: 1,
                message: "block id 9 out of range".into(),
            },
            HsbpError::Wal {
                path: "/tmp/run/wal.log".into(),
                message: "bad magic: not an hsbp-serve WAL".into(),
            },
            HsbpError::Network {
                addr: "127.0.0.1:7474".into(),
                message: "address already in use".into(),
            },
            HsbpError::StateDrift {
                sweep: 128,
                detail: "d_out mismatch in 1 block; MDL delta 3.2e0".into(),
            },
        ];
        for e in errors {
            let text = e.to_string();
            assert!(!text.is_empty() && !text.contains('\n'), "{text:?}");
        }
    }

    #[test]
    fn io_conversion_keeps_source() {
        let e = HsbpError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("gone"));
    }
}
