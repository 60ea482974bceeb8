//! Byte-exact pins of every on-disk and on-wire format: a two-record WAL
//! file, one frame of each sync-protocol message kind, a shard checkpoint
//! `meta.txt` under a file partition, and a serve `snapshot.txt`.
//!
//! The round-trip suites (`serve_recovery`, `channel_prop`, checkpoint
//! resume) only prove that one build reads back what it wrote itself. These
//! constants were captured from a build that predates the shared
//! `hsbp_collections::{fnv, record}` substrate, so a reordered header
//! field, a re-keyed checksum or a reformatted text file fails here even
//! when encoder and decoder change together.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hsbp::serve::wal::{file_bytes, FsyncPolicy, Wal};
use hsbp::serve::{Mutation, Snapshot, StateDir};
use hsbp::shard::channel::{encode_msg, SyncPayload};
use hsbp::shard::{Checkpoint, PartitionStrategy, ShardConfig};
use hsbp::{Graph, SbpConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsbp-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn graph() -> Graph {
    Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)])
}

#[test]
fn wal_file_bytes_are_pinned() {
    let dir = tmpdir("wal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let mut wal = Wal::open(&path, FsyncPolicy::Never, 0).unwrap();
    wal.append(
        1,
        &[
            Mutation::AddEdge {
                from: 0,
                to: 1,
                weight: 2,
            },
            Mutation::RemoveEdge { from: 3, to: 4 },
        ],
    )
    .unwrap();
    wal.append(
        7,
        &[
            Mutation::AddVertices { count: 5 },
            Mutation::RemoveVertex { vertex: 9 },
        ],
    )
    .unwrap();
    drop(wal);
    assert_eq!(
        hex(&file_bytes(&path).unwrap()),
        concat!(
            // magic
            "4853425057414c31",
            // record 1: [u32 len][u64 seq][u64 fnv1a(payload)]
            "1e000000",
            "0100000000000000",
            "0285aa07ddeba038",
            // payload: count, AddEdge 0→1 w2, RemoveEdge 3→4
            "02000000",
            "00",
            "00000000",
            "01000000",
            "0200000000000000",
            "01",
            "03000000",
            "04000000",
            // record 2
            "12000000",
            "0700000000000000",
            "02ecdcf97aa4cd98",
            // payload: count, AddVertices 5, RemoveVertex 9
            "02000000",
            "02",
            "0500000000000000",
            "03",
            "09000000",
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_frames_are_pinned() {
    let cases = [
        (
            3,
            SyncPayload::Delta {
                shard: 2,
                moves: vec![(5, 1), (6, 0)],
            },
            "1900000003000000000000001e5d2963c34d2f1c\
             01020000000200000005000000010000000600000000000000",
        ),
        (
            4,
            SyncPayload::Nack {
                shard: 1,
                missing_from: 3,
                missing_seq: 42,
            },
            "110000000400000000000000fd0eb08c1e13fd56\
             0201000000030000002a00000000000000",
        ),
        (
            5,
            SyncPayload::Digest {
                shard: 0,
                digest: 0x0123_4567_89ab_cdef,
            },
            "0d0000000500000000000000320d2183bc555175\
             0300000000efcdab8967452301",
        ),
        (
            6,
            SyncPayload::Resync {
                num_blocks: 2,
                assignment: vec![0, 1, 1],
            },
            "150000000600000000000000b22cd7ac1c21677c\
             040200000003000000000000000100000001000000",
        ),
    ];
    for (seq, payload, want) in cases {
        assert_eq!(hex(&encode_msg(seq, &payload)), want, "{payload:?}");
    }
}

#[test]
fn checkpoint_meta_with_file_partition_is_pinned() {
    let cfg = ShardConfig {
        strategy: PartitionStrategy::FromParts(vec![0, 1, 1, 0]),
        ..ShardConfig::new(2, 9)
    };
    let dir = tmpdir("ckpt");
    Checkpoint::open_or_create(&dir, &graph(), &cfg, &[0, 1, 1, 0]).unwrap();
    assert_eq!(
        std::fs::read_to_string(dir.join("meta.txt")).unwrap(),
        "hsbp-shard-checkpoint v1\n\
         graph 4 4 4\n\
         seed 9\n\
         shards 2\n\
         strategy from-parts:447f617f98e8f873\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_snapshot_file_is_pinned() {
    let dir = tmpdir("snap");
    let state = StateDir::open_or_create(&dir, &SbpConfig::default()).unwrap();
    let snap = Snapshot::evaluate(3, 11, Arc::new(graph()), vec![0, 0, 0, 1], 2, false);
    state.save_snapshot(&snap, || true).unwrap();
    assert_eq!(
        std::fs::read_to_string(state.snapshot_path()).unwrap(),
        "hsbp-serve-snapshot v1\n\
         epoch 3\n\
         applied_seq 11\n\
         vertices 4\n\
         num_blocks 2\n\
         assignment 0 0 0 1\n\
         edges 4\n\
         0 1 1\n\
         1 2 1\n\
         2 0 1\n\
         3 0 1\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
