//! The serve legs: an in-process `hsbp-serve` daemon with a durable state
//! directory, driven over TCP by one closed-loop client, then killed and
//! warm-restarted from its WAL and snapshot.

use crate::inputs::{labels_fingerprint, Traffic};
use crate::report::Report;
use hsbp_core::SbpConfig;
use hsbp_graph::Graph;
use hsbp_serve::json::{parse, Json};
use hsbp_serve::{ServeConfig, Server, ServerHandle, Snapshot, StateDir};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A state directory under the working directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        let base = std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(".perfbench-tmp");
        let dir = base.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A refused or failed request.
#[derive(Debug)]
struct Failure {
    busy: bool,
    message: String,
}

/// One line-protocol connection.
struct Client {
    stream: TcpStream,
    acc: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Self {
            stream,
            acc: Vec::new(),
        })
    }

    /// Send one request line and read one response line.
    fn request(&mut self, line: &str) -> Result<Json, Failure> {
        let io = |message: String| Failure {
            busy: false,
            message,
        };
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| io(format!("write: {e}")))?;
        let mut buf = [0u8; 8192];
        let text = loop {
            if let Some(eol) = self.acc.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = self.acc.drain(..=eol).collect();
                break String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
            }
            let n = self
                .stream
                .read(&mut buf)
                .map_err(|e| io(format!("read: {e}")))?;
            if n == 0 {
                return Err(io("connection closed mid-response".into()));
            }
            self.acc.extend_from_slice(&buf[..n]);
        };
        let resp = parse(&text).map_err(|e| io(format!("bad response {text:?}: {e}")))?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            return Ok(resp);
        }
        let kind = resp
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("error");
        Err(Failure {
            busy: kind == "busy",
            message: text,
        })
    }
}

/// What the daemon starts from: a persisted snapshot of a detected
/// partition (a warm start, no detection at spawn).
pub struct Start<'a> {
    pub graph: &'a Graph,
    pub assignment: &'a [u32],
    pub num_blocks: usize,
}

/// Everything one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Rounds replay plus kill plus warm restart.
    pub wall_s: f64,
    /// Kill: the daemon's threads stopping, without the shutdown snapshot.
    pub kill_s: f64,
    /// Warm restart: snapshot load and WAL replay until serving again.
    pub recovery_s: f64,
    /// Wall time of each round (batch, reads, flush), ms.
    pub round_ms: Vec<f64>,
    /// Per read op (`catalog::READ_OPS` order), ms.
    pub read_ms: [Vec<f64>; 3],
    pub write_ms: Vec<f64>,
    pub flush_ms: Vec<f64>,
    pub mutations: u64,
    pub mid_refinement_reads: u64,
    pub busy: u64,
    pub cancellations: u64,
    pub refine_errors: u64,
    pub drift_repairs: u64,
    pub wal_bytes: u64,
    pub replayed_batches: u64,
    pub membership: Vec<u32>,
    pub mdl_bits: u64,
    pub normalized_mdl: f64,
}

fn serve_config(dir: &Path, seed: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        sbp: SbpConfig {
            seed,
            threads: 2,
            ..Default::default()
        },
        state_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Request helper that counts every request as one operation and every
/// refusal by kind.
struct Counted<'a> {
    client: Client,
    report: &'a mut Report,
    busy: u64,
}

impl Counted<'_> {
    fn request(&mut self, line: &str) -> Option<Json> {
        match self.client.request(line) {
            Ok(resp) => {
                self.report.op(true);
                Some(resp)
            }
            Err(f) => {
                self.report.op(false);
                if f.busy {
                    self.busy += 1;
                }
                eprintln!("perfbench: serve request failed: {}", f.message);
                None
            }
        }
    }

    fn field(resp: &Option<Json>, key: &str) -> Option<u64> {
        resp.as_ref()
            .and_then(|r| r.get(key))
            .and_then(Json::as_u64)
    }

    /// Full membership, fetched in slices of 1000 vertices.
    fn membership(&mut self, n: usize) -> Vec<u32> {
        let mut labels = Vec::with_capacity(n);
        for lo in (0..n).step_by(1000) {
            let ids: Vec<String> = (lo..n.min(lo + 1000)).map(|v| v.to_string()).collect();
            let resp = self.request(&format!(
                "{{\"op\":\"membership\",\"vertices\":[{}]}}",
                ids.join(",")
            ));
            let blocks = resp
                .as_ref()
                .and_then(|r| r.get("blocks"))
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            labels.extend(blocks.iter().map(|b| b.as_u64().unwrap_or(u64::MAX) as u32));
        }
        labels
    }

    fn mdl(&mut self) -> (u64, f64) {
        let resp = self.request("{\"op\":\"mdl\"}");
        let get = |k: &str| {
            resp.as_ref()
                .and_then(|r| r.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        (get("mdl").to_bits(), get("normalized_mdl"))
    }
}

/// Persist the start state in a fresh `dir`, spawn the daemon on it and
/// connect.
fn open<'r>(
    dir: &Path,
    start: &Start,
    seed: u64,
    report: &'r mut Report,
) -> Result<(ServerHandle, Counted<'r>), String> {
    let config = serve_config(dir, seed);
    let state = StateDir::open_or_create(dir, &config.sbp).map_err(|e| e.to_string())?;
    let snap = Snapshot::evaluate(
        0,
        0,
        Arc::new(start.graph.clone()),
        start.assignment.to_vec(),
        start.num_blocks,
        false,
    );
    state
        .save_snapshot(&snap, || true)
        .map_err(|e| e.to_string())?;
    let handle = Server::spawn(config, Graph::from_edges(0, &[])).map_err(|e| e.to_string())?;
    let client = Client::connect(&handle.local_addr().to_string())?;
    Ok((
        handle,
        Counted {
            client,
            report,
            busy: 0,
        },
    ))
}

/// One full session: set-up, the traffic's rounds, kill, warm restart,
/// and the recovered-state check.
pub fn session(
    tag: &str,
    start: &Start,
    traffic: &Traffic,
    seed: u64,
    report: &mut Report,
) -> Result<Session, String> {
    let dir = TempDir::new(tag)?;
    let mut out = Session::default();
    let (handle, mut c) = open(dir.path(), start, seed, report)?;

    let started = Instant::now();
    for round in &traffic.rounds {
        let round_started = Instant::now();
        let t = Instant::now();
        let resp = c.request(&round.mutation);
        out.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match Counted::field(&resp, "queued") {
            Some(q) => out.mutations += q,
            None if resp.is_some() => c.report.check("mutation ack carries `queued`", false),
            None => {}
        }
        let mut epochs = Vec::with_capacity(round.reads.len());
        for read in &round.reads {
            let t = Instant::now();
            let resp = c.request(&read.line);
            out.read_ms[read.op].push(t.elapsed().as_secs_f64() * 1e3);
            epochs.push(Counted::field(&resp, "epoch"));
        }
        let t = Instant::now();
        let flushed = c.request("{\"op\":\"flush\"}");
        out.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(settled) = Counted::field(&flushed, "epoch") {
            // A read answered from an older epoch was served while this
            // round's refinement was still running.
            out.mid_refinement_reads += epochs
                .iter()
                .filter(|e| e.is_some_and(|e| e < settled))
                .count() as u64;
        }
        out.round_ms
            .push(round_started.elapsed().as_secs_f64() * 1e3);
    }
    let rounds_s = started.elapsed().as_secs_f64();
    let status = c.request("{\"op\":\"status\"}");
    out.cancellations = Counted::field(&status, "cancellations").unwrap_or(0);
    out.refine_errors = Counted::field(&status, "refine_errors").unwrap_or(0);
    out.drift_repairs = Counted::field(&status, "drift_repairs").unwrap_or(0);
    out.wal_bytes = Counted::field(&status, "wal_bytes").unwrap_or(0);
    let n = start.graph.num_vertices();
    out.membership = c.membership(n);
    (out.mdl_bits, out.normalized_mdl) = c.mdl();
    let Counted {
        client,
        report,
        busy,
    } = c;
    out.busy = busy;
    drop(client);

    // Kill without the shutdown snapshot, then warm-restart.
    let t = Instant::now();
    handle.kill();
    out.kill_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let handle = Server::spawn(serve_config(dir.path(), seed), Graph::from_edges(0, &[]))
        .map_err(|e| format!("warm restart: {e}"))?;
    out.recovery_s = t.elapsed().as_secs_f64();
    out.wall_s = rounds_s + out.kill_s + out.recovery_s;
    let client = Client::connect(&handle.local_addr().to_string())?;
    let mut c = Counted {
        client,
        report,
        busy: 0,
    };
    let status = c.request("{\"op\":\"status\"}");
    out.replayed_batches = Counted::field(&status, "replayed_batches").unwrap_or(0);
    let recovered = c.membership(n);
    let (mdl_bits, _) = c.mdl();
    out.busy += c.busy;
    let report = c.report;
    report.check(
        "recovered daemon serves the pre-kill partition",
        recovered_matches(&out.membership, out.mdl_bits, &recovered, mdl_bits),
    );
    report.check("membership covers every vertex", out.membership.len() == n);
    report.check("no refinement errors", out.refine_errors == 0);
    handle.shutdown();
    handle.join();
    Ok(out)
}

/// The recovered daemon must serve exactly the labels and MDL it served
/// before the kill.
pub fn recovered_matches(before: &[u32], before_mdl: u64, after: &[u32], after_mdl: u64) -> bool {
    !before.is_empty()
        && labels_fingerprint(before) == labels_fingerprint(after)
        && before == after
        && before_mdl == after_mdl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_check_rejects_a_flipped_label_or_mdl() {
        let before = vec![0, 1, 1, 2];
        assert!(recovered_matches(&before, 7, &before, 7));
        let mut flipped = before.clone();
        flipped[2] = 0;
        assert!(!recovered_matches(&before, 7, &flipped, 7));
        assert!(!recovered_matches(&before, 7, &before, 8));
        assert!(!recovered_matches(&[], 7, &[], 7));
    }
}
