//! The mutation write-ahead log: every accepted batch is appended here —
//! length-prefixed, checksummed, under the configured fsync policy —
//! *before* it is acknowledged to the client, so a crash never loses an
//! acknowledged mutation.
//!
//! File layout:
//!
//! ```text
//! [8-byte magic "HSBPWAL1"]
//! record*  where record = [u32 payload_len][u64 seq][u64 fnv1a(payload)][payload]
//! ```
//!
//! Records use the workspace's shared frame ([`hsbp_collections::record`]);
//! all integers are little-endian. The payload encodes one mutation batch
//! (`u32` count, then one tagged entry per [`Mutation`]). Replay walks the
//! records front to back and stops at the first torn or corrupt one: a
//! record is either applied whole or not at all, and a kill mid-append
//! costs at most the one unacknowledged batch being written. Recovery
//! physically truncates the file back to the last good record so later
//! appends extend a clean log.

use crate::state::Mutation;
use hsbp_collections::record::{frame, read_frame, ByteReader};
use hsbp_core::{atomic_write, HsbpError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies (and versions) the WAL format.
pub const WAL_MAGIC: &[u8; 8] = b"HSBPWAL1";

/// When the daemon calls `fsync` on the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every appended batch, before the acknowledgement: an
    /// acked batch survives power loss. Slowest.
    #[default]
    Always,
    /// Write every batch to the OS before acking (survives a process
    /// crash), `fsync` only at snapshots and shutdown (a kernel panic or
    /// power loss can lose the tail since the last snapshot).
    Batch,
    /// Never `fsync`; the OS flushes when it likes. Fastest, test-only.
    Never,
}

impl FsyncPolicy {
    /// Parse the `--fsync` CLI value.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy `{other}` (always|batch|never)"
            )),
        }
    }

    /// Stable CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        }
    }
}

fn wal_err(path: &Path, message: impl Into<String>) -> HsbpError {
    HsbpError::Wal {
        path: path.display().to_string(),
        message: message.into(),
    }
}

/// Encode one batch into a payload (count-prefixed tagged entries).
pub(crate) fn encode_batch(batch: &[Mutation]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + batch.len() * 17);
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for m in batch {
        match *m {
            Mutation::AddEdge { from, to, weight } => {
                out.push(0);
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
                out.extend_from_slice(&weight.to_le_bytes());
            }
            Mutation::RemoveEdge { from, to } => {
                out.push(1);
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
            }
            Mutation::AddVertices { count } => {
                out.push(2);
                out.extend_from_slice(&(count as u64).to_le_bytes());
            }
            Mutation::RemoveVertex { vertex } => {
                out.push(3);
                out.extend_from_slice(&vertex.to_le_bytes());
            }
        }
    }
    out
}

/// Decode one payload back into a batch. `None` on any truncation or an
/// unknown tag — the caller treats the whole record as torn.
pub(crate) fn decode_batch(payload: &[u8]) -> Option<Vec<Mutation>> {
    let mut r = ByteReader::new(payload);
    let count = r.u32()? as usize;
    let mut batch = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let m = match r.u8()? {
            0 => Mutation::AddEdge {
                from: r.u32()?,
                to: r.u32()?,
                weight: r.u64()?,
            },
            1 => Mutation::RemoveEdge {
                from: r.u32()?,
                to: r.u32()?,
            },
            2 => Mutation::AddVertices {
                count: r.u64()? as usize,
            },
            3 => Mutation::RemoveVertex { vertex: r.u32()? },
            _ => return None,
        };
        batch.push(m);
    }
    r.is_done().then_some(batch)
}

/// Everything replay learned from a WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded `(seq, batch)` records, in file order.
    pub records: Vec<(u64, Vec<Mutation>)>,
    /// Byte offset just past the last good record (where appends resume).
    pub good_bytes: u64,
    /// True when a torn or corrupt tail record was detected and dropped.
    pub torn_tail: bool,
}

/// Read every intact record of the WAL at `path`. A missing file is an
/// empty replay. The first torn record (short header, short payload, or a
/// checksum mismatch) ends the scan: it and anything after it are dropped,
/// never partially applied.
pub fn replay(path: &Path) -> Result<WalReplay, HsbpError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay {
                records: Vec::new(),
                good_bytes: 0,
                torn_tail: false,
            })
        }
        Err(e) => return Err(wal_err(path, format!("read: {e}"))),
    };
    if bytes.is_empty() {
        return Ok(WalReplay {
            records: Vec::new(),
            good_bytes: 0,
            torn_tail: false,
        });
    }
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(wal_err(path, "bad magic: not an hsbp-serve WAL"));
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut torn_tail = false;
    while pos < bytes.len() {
        let Ok((seq, payload, used)) = read_frame(&bytes[pos..]) else {
            torn_tail = true;
            break;
        };
        let Some(batch) = decode_batch(payload) else {
            torn_tail = true;
            break;
        };
        records.push((seq, batch));
        pos += used;
    }
    Ok(WalReplay {
        records,
        good_bytes: pos.min(bytes.len()) as u64,
        torn_tail,
    })
}

/// Append handle over the WAL file. Single writer (the daemon serialises
/// appends through one mutex); `Wal` itself does no locking.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    bytes: u64,
}

impl Wal {
    /// Open the WAL at `path` for appending, creating it (with the magic
    /// header) when absent. `good_bytes` — from a prior [`replay`] — is
    /// where appends resume; any torn tail past it is physically truncated
    /// away first. Pass `good_bytes = 0` for a fresh file.
    pub fn open(path: &Path, policy: FsyncPolicy, good_bytes: u64) -> Result<Self, HsbpError> {
        let fresh = good_bytes < WAL_MAGIC.len() as u64;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(fresh)
            .open(path)
            .map_err(|e| wal_err(path, format!("open: {e}")))?;
        let mut wal = Self {
            path: path.to_path_buf(),
            file,
            policy,
            bytes: 0,
        };
        if fresh {
            wal.file
                .write_all(WAL_MAGIC)
                .map_err(|e| wal_err(path, format!("write magic: {e}")))?;
            wal.bytes = WAL_MAGIC.len() as u64;
        } else {
            wal.file
                .set_len(good_bytes)
                .map_err(|e| wal_err(path, format!("truncate torn tail: {e}")))?;
            wal.bytes = good_bytes;
        }
        wal.file
            .seek(SeekFrom::Start(wal.bytes))
            .map_err(|e| wal_err(path, format!("seek: {e}")))?;
        if policy == FsyncPolicy::Always {
            wal.sync()?;
        }
        Ok(wal)
    }

    /// Current file size in bytes (served as `status.wal_bytes`).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Append one batch under `seq`, honouring the fsync policy. On return
    /// the record is durable enough to acknowledge (per policy).
    pub fn append(&mut self, seq: u64, batch: &[Mutation]) -> Result<(), HsbpError> {
        let record = frame(seq, &encode_batch(batch));
        self.file
            .write_all(&record)
            .map_err(|e| wal_err(&self.path, format!("append seq {seq}: {e}")))?;
        self.bytes += record.len() as u64;
        if self.policy == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Fault-injection hook: write only the first `keep` bytes of the
    /// record for `seq` — a deterministic torn write, as left behind by a
    /// crash mid-append. The truncated bytes are flushed so the tear is
    /// really on disk.
    pub fn append_torn(
        &mut self,
        seq: u64,
        batch: &[Mutation],
        keep: usize,
    ) -> Result<(), HsbpError> {
        let record = frame(seq, &encode_batch(batch));
        let keep = keep.min(record.len().saturating_sub(1)).max(1);
        self.file
            .write_all(&record[..keep])
            .map_err(|e| wal_err(&self.path, format!("torn append seq {seq}: {e}")))?;
        self.bytes += keep as u64;
        self.file
            .sync_data()
            .map_err(|e| wal_err(&self.path, format!("sync: {e}")))?;
        Ok(())
    }

    /// `fsync` whatever has been written (no-op for `Never`).
    pub fn sync(&mut self) -> Result<(), HsbpError> {
        if self.policy == FsyncPolicy::Never {
            return Ok(());
        }
        self.file
            .sync_data()
            .map_err(|e| wal_err(&self.path, format!("sync: {e}")))
    }

    /// Drop every record with `seq <= upto` (they are covered by a
    /// persisted snapshot): surviving tail records are rewritten through
    /// [`atomic_write`] (fsynced unless the policy is `Never`).
    pub fn truncate_to(&mut self, upto: u64) -> Result<(), HsbpError> {
        self.file
            .flush()
            .map_err(|e| wal_err(&self.path, format!("flush: {e}")))?;
        let replayed = replay(&self.path)?;
        let mut bytes = WAL_MAGIC.to_vec();
        for (seq, batch) in &replayed.records {
            if *seq > upto {
                bytes.extend_from_slice(&frame(*seq, &encode_batch(batch)));
            }
        }
        atomic_write(
            &self.path,
            &bytes,
            self.policy != FsyncPolicy::Never,
            || true,
            wal_err,
        )?;
        // Reopen the renamed file for future appends.
        let file = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| wal_err(&self.path, format!("reopen: {e}")))?;
        self.file = file;
        self.bytes = bytes.len() as u64;
        self.file
            .seek(SeekFrom::Start(self.bytes))
            .map_err(|e| wal_err(&self.path, format!("seek: {e}")))?;
        Ok(())
    }
}

/// Read back the raw bytes of a WAL (test/diagnostic helper).
pub fn file_bytes(path: &Path) -> Result<Vec<u8>, HsbpError> {
    let mut f = File::open(path).map_err(|e| wal_err(path, format!("open: {e}")))?;
    let mut out = Vec::new();
    f.read_to_end(&mut out)
        .map_err(|e| wal_err(path, format!("read: {e}")))?;
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsbp-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_batch(i: u64) -> Vec<Mutation> {
        vec![
            Mutation::AddEdge {
                from: i as u32,
                to: (i + 1) as u32,
                weight: 1 + i,
            },
            Mutation::RemoveEdge {
                from: 9,
                to: i as u32,
            },
            Mutation::AddVertices { count: 3 },
            Mutation::RemoveVertex { vertex: 2 },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 0).unwrap();
        for seq in 1..=5u64 {
            wal.append(seq, &sample_batch(seq)).unwrap();
        }
        let replayed = replay(&path).unwrap();
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.records.len(), 5);
        for (i, (seq, batch)) in replayed.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(*batch, sample_batch(*seq));
        }
        assert_eq!(replayed.good_bytes, wal.bytes());
    }

    #[test]
    fn torn_final_record_is_detected_and_dropped() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path, FsyncPolicy::Batch, 0).unwrap();
        wal.append(1, &sample_batch(1)).unwrap();
        wal.append(2, &sample_batch(2)).unwrap();
        wal.append_torn(3, &sample_batch(3), 11).unwrap();
        drop(wal);
        let replayed = replay(&path).unwrap();
        assert!(replayed.torn_tail, "tear detected");
        assert_eq!(replayed.records.len(), 2, "torn record never applied");
        // Reopening at good_bytes truncates the tear; appends are clean.
        let mut wal = Wal::open(&path, FsyncPolicy::Batch, replayed.good_bytes).unwrap();
        wal.append(3, &sample_batch(3)).unwrap();
        let again = replay(&path).unwrap();
        assert!(!again.torn_tail);
        assert_eq!(again.records.len(), 3);
    }

    #[test]
    fn corrupt_checksum_ends_replay() {
        let path = tmp("corrupt");
        let mut wal = Wal::open(&path, FsyncPolicy::Never, 0).unwrap();
        wal.append(1, &sample_batch(1)).unwrap();
        wal.append(2, &sample_batch(2)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Flip one payload byte of the *second* record.
        let mut bytes = file_bytes(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.torn_tail);
        assert_eq!(replayed.records.len(), 1, "only the intact prefix survives");
    }

    #[test]
    fn truncate_to_drops_covered_records() {
        let path = tmp("truncate");
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 0).unwrap();
        for seq in 1..=6u64 {
            wal.append(seq, &sample_batch(seq)).unwrap();
        }
        let before = wal.bytes();
        wal.truncate_to(4).unwrap();
        assert!(wal.bytes() < before);
        let replayed = replay(&path).unwrap();
        let seqs: Vec<u64> = replayed.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![5, 6]);
        // Appends after truncation extend the rewritten log.
        wal.append(7, &sample_batch(7)).unwrap();
        let again = replay(&path).unwrap();
        assert_eq!(again.records.len(), 3);
    }

    #[test]
    fn missing_file_is_empty_replay_and_bad_magic_rejected() {
        let path = tmp("magic");
        let replayed = replay(&path).unwrap();
        assert!(replayed.records.is_empty());
        std::fs::write(&path, b"not a wal at all").unwrap();
        assert!(matches!(replay(&path), Err(HsbpError::Wal { .. })));
    }

    #[test]
    fn fsync_policy_parses_and_roundtrips() {
        for (text, policy) in [
            ("always", FsyncPolicy::Always),
            ("batch", FsyncPolicy::Batch),
            ("never", FsyncPolicy::Never),
        ] {
            assert_eq!(FsyncPolicy::parse(text).unwrap(), policy);
            assert_eq!(policy.name(), text);
        }
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}
