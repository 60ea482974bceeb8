//! Crash-recovery tests for the durable `hsbp-serve` daemon: warm restart
//! after a clean shutdown, and the recovery-determinism property — a
//! daemon killed at any injected fault point, restarted from its state
//! directory, reports state bit-identical to a fresh daemon fed the same
//! durable batch sequence (torn final WAL records dropped whole).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hsbp::serve::json::{parse, Json};
use hsbp::serve::{ServeConfig, ServeFaultPlan, Server, ServerHandle};
use hsbp::{Graph, RunBudget, SbpConfig, Variant};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Send one request; `None` when the daemon crashed instead of
    /// answering (connection closed without a response line).
    fn try_request(&mut self, line: &str) -> Option<Json> {
        let mut out = line.as_bytes().to_vec();
        out.push(b'\n');
        if self.reader.get_mut().write_all(&out).is_err() {
            return None;
        }
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(parse(response.trim()).unwrap()),
        }
    }

    fn ok(&mut self, line: &str) -> Json {
        let resp = self.try_request(line).expect("daemon answered");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {line} failed: {}",
            resp.to_line()
        );
        resp
    }
}

fn u(resp: &Json, field: &str) -> u64 {
    resp.get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {field} in {}", resp.to_line()))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsbp-serve-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sbp() -> SbpConfig {
    SbpConfig::new(Variant::Metropolis, 42)
}

fn durable_config(dir: &Path, plan: &str, snapshot_every: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        sbp: sbp(),
        budget: RunBudget::unlimited(),
        state_dir: Some(dir.to_path_buf()),
        snapshot_every,
        fault_plan: ServeFaultPlan::parse(plan).unwrap(),
        ..ServeConfig::default()
    }
}

/// The mutation script every scenario draws from. Includes the replay
/// no-op edge cases on purpose: batch 4 removes a vertex batch 3 already
/// isolated, and batch 5 re-adds an existing edge (weight accumulation
/// must replay identically, exactly once).
const BATCHES: &[&str] = &[
    "{\"op\":\"add_edges\",\"edges\":[[0,1],[1,2],[2,0]]}",
    "{\"op\":\"add_edges\",\"edges\":[[3,4],[4,5],[5,3],[0,3]]}",
    "{\"op\":\"remove_vertex\",\"vertex\":5}",
    "{\"op\":\"remove_vertex\",\"vertex\":5}",
    "{\"op\":\"add_edges\",\"edges\":[[0,1],[2,4]]}",
    "{\"op\":\"remove_edges\",\"edges\":[[0,3]]}",
];

/// Feed batches sequentially (flush after each, so no cancellations and a
/// deterministic refinement sequence); returns how many were acknowledged.
fn drive(client: &mut Client, batches: &[&str]) -> usize {
    let mut acked = 0;
    for batch in batches {
        let Some(resp) = client.try_request(batch) else {
            break; // injected crash: no response, connection dropped
        };
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            break; // shutting_down after a driver-side crash
        }
        acked += 1;
        if client.try_request("{\"op\":\"flush\"}").is_none() {
            break;
        }
    }
    acked
}

/// Everything the bit-identity comparison looks at: the exact `mdl`
/// response text (epoch, MDL bits, block count), the full membership
/// vector, and the graph dimensions.
fn fingerprint(handle: &ServerHandle) -> (String, Vec<u64>, u64, u64) {
    let mut client = Client::connect(handle);
    let status = client.ok("{\"op\":\"status\"}");
    let n = u(&status, "num_vertices");
    let vertices: Vec<String> = (0..n).map(|v| v.to_string()).collect();
    let members = client.ok(&format!(
        "{{\"op\":\"membership\",\"vertices\":[{}]}}",
        vertices.join(",")
    ));
    let blocks: Vec<u64> = members
        .get("blocks")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|b| b.as_u64().unwrap())
        .collect();
    let mdl = client.ok("{\"op\":\"mdl\"}");
    (mdl.to_line(), blocks, n, u(&status, "num_edges"))
}

/// Run the crash → restart → compare-with-fresh property for one fault
/// plan. `expected_durable` is how many batches must survive into the
/// recovered state (acknowledged ones, plus the crash-after-wal batch that
/// is durable but unacknowledged; minus a torn one, dropped whole).
fn assert_recovers_bit_identical(
    tag: &str,
    plan: &str,
    snapshot_every: u64,
    expected_durable: usize,
) {
    let dir = tmpdir(tag);

    // Phase 1: a durable daemon driven until the injected crash (or, with
    // no plan, killed without the clean-shutdown snapshot).
    let handle = Server::spawn(
        durable_config(&dir, plan, snapshot_every),
        Graph::from_edges(0, &[]),
    )
    .unwrap();
    let mut client = Client::connect(&handle);
    let acked = drive(&mut client, BATCHES);
    drop(client);
    if plan.is_empty() {
        assert_eq!(acked, BATCHES.len(), "no faults: every batch acknowledged");
        handle.kill(); // SIGKILL-like: stale snapshot + WAL tail on disk
    } else {
        assert!(
            acked < BATCHES.len(),
            "{tag}: the fault plan should have stopped the run (acked {acked})"
        );
        handle.join(); // the injected crash already shut the daemon down
    }

    // Phase 2: restart from the state directory.
    let recovered = Server::spawn(
        durable_config(&dir, "", snapshot_every),
        Graph::from_edges(0, &[]),
    )
    .unwrap();
    {
        let mut client = Client::connect(&recovered);
        let status = client.ok("{\"op\":\"status\"}");
        assert!(
            status
                .get("recovered_epoch")
                .and_then(Json::as_u64)
                .is_some(),
            "{tag}: warm restart reports recovered_epoch: {}",
            status.to_line()
        );
        assert_eq!(
            u(&status, "seq_applied"),
            expected_durable as u64,
            "{tag}: recovery covers exactly the durable batches"
        );
    }
    let got = fingerprint(&recovered);
    recovered.shutdown();
    recovered.join();

    // Phase 3: a fresh, non-durable daemon fed the same durable batch
    // sequence must land on bit-identical state.
    let reference = Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            sbp: sbp(),
            budget: RunBudget::unlimited(),
            ..ServeConfig::default()
        },
        Graph::from_edges(0, &[]),
    )
    .unwrap();
    let mut client = Client::connect(&reference);
    assert_eq!(
        drive(&mut client, &BATCHES[..expected_durable]),
        expected_durable
    );
    drop(client);
    let want = fingerprint(&reference);
    reference.shutdown();
    reference.join();

    assert_eq!(
        got, want,
        "{tag}: recovered state diverged from fresh replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Killed daemon (no clean-shutdown snapshot): the whole WAL replays.
#[test]
fn kill_and_restart_is_bit_identical_to_fresh_run() {
    assert_recovers_bit_identical("kill", "", 32, BATCHES.len());
}

/// Crash right after the WAL append: the batch is durable but was never
/// acknowledged — recovery must replay it (at-least-once, never lost).
#[test]
fn crash_after_wal_append_replays_the_unacked_batch() {
    assert_recovers_bit_identical("afterwal", "crash-after-wal:4", 32, 4);
}

/// Crash mid-append: the torn final record is detected, dropped whole, and
/// never partially applied.
#[test]
fn torn_final_wal_record_is_dropped_whole() {
    assert_recovers_bit_identical("torn", "torn-write:4", 32, 3);
}

/// Crash after the snapshot tmp file is written but before the atomic
/// rename: the previous snapshot survives and the WAL still covers
/// everything since it. (Save #1 is the fresh-directory epoch-0 snapshot,
/// so #2 is the first cadence save, triggered once seq reaches 3.)
#[test]
fn crash_before_snapshot_rename_recovers_from_previous_snapshot() {
    assert_recovers_bit_identical("prerename", "crash-before-rename:2", 3, 3);
}

/// Clean shutdown persists a final snapshot: restart needs zero replay and
/// resumes WAL numbering where it stopped.
#[test]
fn clean_shutdown_warm_starts_without_replay() {
    let dir = tmpdir("clean");
    let handle = Server::spawn(durable_config(&dir, "", 32), Graph::from_edges(0, &[])).unwrap();
    let mut client = Client::connect(&handle);
    assert_eq!(drive(&mut client, BATCHES), BATCHES.len());
    let before = fingerprint(&handle);
    drop(client);
    handle.shutdown();
    handle.join();

    let restarted = Server::spawn(durable_config(&dir, "", 32), Graph::from_edges(0, &[])).unwrap();
    {
        let mut client = Client::connect(&restarted);
        let status = client.ok("{\"op\":\"status\"}");
        assert_eq!(
            status.get("recovered_epoch").and_then(Json::as_u64),
            Some(BATCHES.len() as u64),
            "final snapshot carried the last epoch: {}",
            status.to_line()
        );
        assert_eq!(
            u(&status, "replayed_batches"),
            0,
            "no WAL tail after clean shutdown"
        );
        assert_eq!(u(&status, "last_snapshot_seq"), BATCHES.len() as u64);

        // Mutations keep flowing after recovery, continuing the sequence.
        let resp = client.ok("{\"op\":\"add_edges\",\"edges\":[[1,4]]}");
        assert_eq!(u(&resp, "seq"), BATCHES.len() as u64 + 1);
        client.ok("{\"op\":\"flush\"}");
    }
    assert_eq!(
        fingerprint(&restarted).1.len(),
        before.1.len(),
        "same vertex set served after restart"
    );
    restarted.shutdown();
    restarted.join();

    // Replay idempotence: recovering the same directory again (now with a
    // newer snapshot) still converges — nothing is applied twice.
    let again = Server::spawn(durable_config(&dir, "", 32), Graph::from_edges(0, &[])).unwrap();
    {
        let mut client = Client::connect(&again);
        let status = client.ok("{\"op\":\"status\"}");
        assert_eq!(u(&status, "replayed_batches"), 0);
        assert_eq!(u(&status, "seq_applied"), BATCHES.len() as u64 + 1);
    }
    again.shutdown();
    again.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state directory refined under a different seed is refused instead of
/// silently breaking recovery determinism.
#[test]
fn mismatched_identity_is_refused_on_restart() {
    let dir = tmpdir("identity");
    let handle = Server::spawn(durable_config(&dir, "", 32), Graph::from_edges(0, &[])).unwrap();
    handle.shutdown();
    handle.join();

    let mut other = durable_config(&dir, "", 32);
    other.sbp = SbpConfig::new(Variant::Metropolis, 43);
    match Server::spawn(other, Graph::from_edges(0, &[])) {
        Err(hsbp::HsbpError::Checkpoint { message, .. }) => {
            assert!(message.contains("identity"), "{message}")
        }
        Ok(_) => panic!("seed mismatch should refuse to warm-start"),
        Err(other) => panic!("expected Checkpoint error, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
