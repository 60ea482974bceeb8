//! The `bench_serve` load-test harness: a deterministic, replayable client
//! workload against an `hsbp-serve` daemon.
//!
//! The workload is generated entirely from `(spec, seed)` — bursty
//! mutation batches (biased toward intra-group edges so refinement has
//! structure to find) interleaved with heavy read bursts — and the
//! generator emits literal protocol lines, so `workload_fingerprint` in
//! the report proves two runs replayed the identical byte sequence.
//! Measured per run:
//!
//! * **read latency** p50/p99 (µs) — individual request round-trips
//!   answered from the published snapshot while refinement runs;
//! * **mutations/s** — batch round-trip throughput;
//! * **refinement lag** — wall time of the `flush` barrier per round;
//! * **mid-refinement reads** — reads whose response epoch predates the
//!   post-flush epoch of their round: proof the daemon answered them from
//!   the previous snapshot while the new one was still being refined;
//! * **recovery leg** (in-process mode, schema v2) — a durable daemon is
//!   fed the workload's mutations, killed without a shutdown snapshot, and
//!   restarted from its state directory; `recovery_ms` is the warm-restart
//!   wall time (snapshot load + WAL tail replay) and `replayed_batches`
//!   how many WAL records it re-refined.
//!
//! Results land in `BENCH_serve.json`
//! (`schema_version` = [`hsbp_serve::BENCH_SERVE_SCHEMA_VERSION`]).

use hsbp_collections::fnv::Fnv1a;
use hsbp_collections::json::{num_u, obj, parse, Json};
use hsbp_collections::SplitMix64;
use hsbp_core::{HsbpError, RunBudget, SbpConfig, Variant};
use hsbp_graph::Graph;
use hsbp_serve::{ServeConfig, Server, BENCH_SERVE_SCHEMA_VERSION, PROTOCOL_VERSION};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shape of one generated workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Stable name recorded in the report.
    pub name: &'static str,
    /// Vertex id universe the workload mutates.
    pub vertices: u32,
    /// Planted group count (edge endpoints are intra-group biased).
    pub groups: u32,
    /// Mutation-burst / read-burst rounds.
    pub rounds: usize,
    /// Edges per mutation batch.
    pub batch_size: usize,
    /// Read requests per round.
    pub reads_per_round: usize,
}

/// Seconds-scale workload CI replays on every push.
pub const SMOKE: ServeSpec = ServeSpec {
    name: "smoke",
    vertices: 120,
    groups: 4,
    rounds: 6,
    batch_size: 40,
    reads_per_round: 30,
};

/// The committed-baseline workload (minutes-scale on the bench host).
pub const FULL: ServeSpec = ServeSpec {
    name: "full",
    vertices: 600,
    groups: 8,
    rounds: 20,
    batch_size: 150,
    reads_per_round: 100,
};

/// One mutation/read round of protocol lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkRound {
    /// Mutation batch requests (each one `add_edges`/`remove_edges` line).
    pub mutation_lines: Vec<String>,
    /// Read requests (`membership` / `mdl` / `block_stats` lines).
    pub read_lines: Vec<String>,
}

/// A fully materialised workload: literal request lines, nothing left to
/// randomness at replay time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// The rounds, replayed in order.
    pub rounds: Vec<WorkRound>,
}

/// Generate the deterministic workload for `(spec, seed)`.
pub fn generate_workload(spec: &ServeSpec, seed: u64) -> Workload {
    let mut rounds = Vec::with_capacity(spec.rounds);
    let per_group = (spec.vertices / spec.groups).max(1);
    for round in 0..spec.rounds {
        let mut rng = SplitMix64::for_item(seed, 0x5345_5256, round as u64); // "SERV"
        let mut adds: Vec<(u32, u32, u64)> = Vec::new();
        let mut removes: Vec<(u32, u32)> = Vec::new();
        for _ in 0..spec.batch_size {
            let u = rng.next_below(u64::from(spec.vertices)) as u32;
            let group = u / per_group;
            // 85% intra-group edges: mutations mostly reinforce the planted
            // structure, so warm refinement has a signal to track.
            let v = if rng.next_below(100) < 85 {
                (group * per_group + rng.next_below(u64::from(per_group)) as u32)
                    .min(spec.vertices - 1)
            } else {
                rng.next_below(u64::from(spec.vertices)) as u32
            };
            if u == v {
                continue;
            }
            // 12% of entries retract an edge added earlier this round.
            if rng.next_below(100) < 12 && !adds.is_empty() {
                let idx = rng.next_below(adds.len() as u64) as usize;
                removes.push((adds[idx].0, adds[idx].1));
            } else {
                adds.push((u, v, 1 + rng.next_below(3)));
            }
        }
        let mut mutation_lines = Vec::new();
        if !adds.is_empty() {
            let edges: Vec<String> = adds
                .iter()
                .map(|(u, v, w)| format!("[{u},{v},{w}]"))
                .collect();
            mutation_lines.push(format!(
                "{{\"op\":\"add_edges\",\"edges\":[{}]}}",
                edges.join(",")
            ));
        }
        if !removes.is_empty() {
            let edges: Vec<String> = removes.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
            mutation_lines.push(format!(
                "{{\"op\":\"remove_edges\",\"edges\":[{}]}}",
                edges.join(",")
            ));
        }
        let mut read_lines = Vec::with_capacity(spec.reads_per_round);
        for r in 0..spec.reads_per_round {
            match r % 3 {
                0 => {
                    let ids: Vec<String> = (0..8)
                        .map(|_| rng.next_below(u64::from(spec.vertices)).to_string())
                        .collect();
                    read_lines.push(format!(
                        "{{\"op\":\"membership\",\"vertices\":[{}]}}",
                        ids.join(",")
                    ));
                }
                1 => read_lines.push("{\"op\":\"mdl\"}".to_string()),
                _ => read_lines.push("{\"op\":\"block_stats\"}".to_string()),
            }
        }
        rounds.push(WorkRound {
            mutation_lines,
            read_lines,
        });
    }
    Workload { rounds }
}

/// FNV-1a over every request line: two equal fingerprints replay the
/// byte-identical request sequence.
pub fn fingerprint(workload: &Workload) -> u64 {
    let mut h = Fnv1a::new();
    for round in &workload.rounds {
        for line in round.mutation_lines.iter().chain(&round.read_lines) {
            h.bytes(line.as_bytes()).bytes(b"\n");
        }
    }
    h.finish()
}

/// Everything measured by one replay.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Spec name (`smoke` / `full`).
    pub mode: String,
    /// Workload seed.
    pub seed: u64,
    /// FNV-1a of the replayed request lines.
    pub workload_fingerprint: u64,
    /// Individual read requests issued.
    pub reads: usize,
    /// Read-latency percentiles, microseconds.
    pub read_p50_us: f64,
    /// 99th percentile read latency, microseconds.
    pub read_p99_us: f64,
    /// Individual mutations (edges) enqueued.
    pub mutations: usize,
    /// Mutations per second of batch round-trip time.
    pub mutations_per_s: f64,
    /// Per-round `flush` barrier times (refinement convergence lag), ms.
    pub flush_ms: Vec<f64>,
    /// Reads answered from a snapshot older than the round's post-flush
    /// epoch — i.e. served *while* refinement of the round's mutations was
    /// still running.
    pub mid_refinement_reads: usize,
    /// Daemon-side counters scraped from the final `status`.
    pub cancellations: u64,
    /// Drift events repaired across all refinement rounds.
    pub drift_repairs: u64,
    /// Refinement rounds that failed server-side.
    pub refine_errors: u64,
    /// Final published epoch.
    pub final_epoch: u64,
    /// Final block count.
    pub final_num_blocks: u64,
    /// Crash-recovery leg (in-process mode only; `None` with `--connect`,
    /// where killing the external daemon is not the harness's call).
    pub recovery: Option<RecoveryReport>,
}

/// What the kill → warm-restart leg measured.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Wall time of the warm restart: snapshot load plus WAL tail replay,
    /// until the daemon is serving again.
    pub recovery_ms: f64,
    /// WAL records re-refined during the restart.
    pub replayed_batches: u64,
    /// Epoch carried by the persisted snapshot the restart loaded.
    pub recovered_epoch: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl ServeReport {
    /// Serialise to the pretty-printed `BENCH_serve.json` layout.
    pub fn to_json(&self) -> String {
        let num = |x: usize| num_u(x as u64);
        let recovery = self.recovery.as_ref().map_or(Json::Null, |r| {
            obj(vec![
                ("recovery_ms", Json::Num(r.recovery_ms)),
                ("replayed_batches", num_u(r.replayed_batches)),
                ("recovered_epoch", num_u(r.recovered_epoch)),
            ])
        });
        obj(vec![
            ("schema_version", num_u(BENCH_SERVE_SCHEMA_VERSION.into())),
            ("mode", Json::Str(self.mode.clone())),
            ("seed", num_u(self.seed)),
            (
                "workload_fingerprint",
                Json::Str(format!("{:016x}", self.workload_fingerprint)),
            ),
            ("reads", num(self.reads)),
            ("read_p50_us", Json::Num(self.read_p50_us)),
            ("read_p99_us", Json::Num(self.read_p99_us)),
            ("mutations", num(self.mutations)),
            ("mutations_per_s", Json::Num(self.mutations_per_s)),
            (
                "flush_ms",
                Json::Arr(self.flush_ms.iter().copied().map(Json::Num).collect()),
            ),
            ("mid_refinement_reads", num(self.mid_refinement_reads)),
            ("cancellations", num_u(self.cancellations)),
            ("drift_repairs", num_u(self.drift_repairs)),
            ("refine_errors", num_u(self.refine_errors)),
            ("final_epoch", num_u(self.final_epoch)),
            ("final_num_blocks", num_u(self.final_num_blocks)),
            ("recovery", recovery),
        ])
        .to_pretty()
    }
}

/// A line-oriented protocol client over one TCP connection.
pub struct ServeClient {
    stream: TcpStream,
    acc: Vec<u8>,
    addr: String,
}

impl ServeClient {
    /// Connect and verify the protocol version handshake.
    pub fn connect(addr: &str) -> Result<Self, HsbpError> {
        let net = |message: String| HsbpError::Network {
            addr: addr.to_string(),
            message,
        };
        let stream = TcpStream::connect(addr).map_err(|e| net(format!("connect failed: {e}")))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| net(format!("set_read_timeout failed: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| net(format!("set_nodelay failed: {e}")))?;
        let mut client = Self {
            stream,
            acc: Vec::new(),
            addr: addr.to_string(),
        };
        let hello = client.request("{\"op\":\"version\"}")?;
        let proto = hello.get("protocol").and_then(Json::as_u64).unwrap_or(0);
        if proto != u64::from(PROTOCOL_VERSION) {
            return Err(HsbpError::Network {
                addr: addr.to_string(),
                message: format!(
                    "protocol mismatch: daemon speaks {proto}, harness speaks {PROTOCOL_VERSION}"
                ),
            });
        }
        Ok(client)
    }

    fn net_err(&self, message: String) -> HsbpError {
        HsbpError::Network {
            addr: self.addr.clone(),
            message,
        }
    }

    /// Send one request line, read one response line.
    pub fn request(&mut self, line: &str) -> Result<Json, HsbpError> {
        let mut out = line.as_bytes().to_vec();
        out.push(b'\n');
        self.stream
            .write_all(&out)
            .map_err(|e| self.net_err(format!("write failed: {e}")))?;
        let mut buf = [0u8; 4096];
        loop {
            if let Some(eol) = self.acc.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.acc.drain(..=eol).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                let parsed = parse(&text)
                    .map_err(|e| self.net_err(format!("bad response JSON: {e} in {text:?}")))?;
                if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
                    // Protocol v2 errors are objects ({kind, message});
                    // tolerate the v1 plain-string shape too.
                    let msg = match parsed.get("error") {
                        Some(Json::Str(s)) => s.clone(),
                        Some(err) => {
                            let kind = err.get("kind").and_then(Json::as_str).unwrap_or("error");
                            let message = err
                                .get("message")
                                .and_then(Json::as_str)
                                .unwrap_or("request refused");
                            format!("{kind}: {message}")
                        }
                        None => "request refused".to_string(),
                    };
                    return Err(self.net_err(format!("daemon error: {msg}")));
                }
                return Ok(parsed);
            }
            let n = self
                .stream
                .read(&mut buf)
                .map_err(|e| self.net_err(format!("read failed: {e}")))?;
            if n == 0 {
                return Err(self.net_err("connection closed mid-response".into()));
            }
            self.acc.extend_from_slice(&buf[..n]);
        }
    }

    /// Send `{"op":"quit"}` (orderly daemon shutdown).
    pub fn quit(&mut self) -> Result<(), HsbpError> {
        self.request("{\"op\":\"quit\"}").map(|_| ())
    }
}

/// Replay `workload` against the daemon at `addr` and measure.
pub fn run_workload(
    addr: &str,
    spec: &ServeSpec,
    seed: u64,
    workload: &Workload,
) -> Result<ServeReport, HsbpError> {
    let mut client = ServeClient::connect(addr)?;
    // Pre-seed the whole vertex universe and wait for it to publish, so
    // every membership read in the workload resolves regardless of how the
    // edge mutations land.
    client.request(&format!(
        "{{\"op\":\"add_vertices\",\"count\":{}}}",
        spec.vertices
    ))?;
    client.request("{\"op\":\"flush\"}")?;
    let mut read_latencies_us: Vec<f64> = Vec::new();
    let mut mutation_time = Duration::ZERO;
    let mut mutations = 0usize;
    let mut flush_ms = Vec::with_capacity(workload.rounds.len());
    let mut mid_refinement_reads = 0usize;

    for round in &workload.rounds {
        let batch_started = Instant::now();
        for line in &round.mutation_lines {
            let resp = client.request(line)?;
            mutations += resp.get("queued").and_then(Json::as_u64).unwrap_or(0) as usize;
        }
        mutation_time += batch_started.elapsed();

        // Reads race the refinement the batch just triggered; each records
        // the epoch it was answered from.
        let mut epochs: Vec<u64> = Vec::with_capacity(round.read_lines.len());
        for line in &round.read_lines {
            let started = Instant::now();
            let resp = client.request(line)?;
            read_latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
            epochs.push(resp.get("epoch").and_then(Json::as_u64).unwrap_or(0));
        }

        let flush_started = Instant::now();
        let flushed = client.request("{\"op\":\"flush\"}")?;
        flush_ms.push(flush_started.elapsed().as_secs_f64() * 1e3);
        let settled_epoch = flushed.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        // A read that saw an older epoch was served while this round's
        // refinement was still in flight.
        mid_refinement_reads += epochs.iter().filter(|&&e| e < settled_epoch).count();
    }

    let status = client.request("{\"op\":\"status\"}")?;
    let field = |name: &str| status.get(name).and_then(Json::as_u64).unwrap_or(0);
    read_latencies_us.sort_by(|a, b| a.total_cmp(b));
    let secs = mutation_time.as_secs_f64();
    Ok(ServeReport {
        mode: spec.name.to_string(),
        seed,
        workload_fingerprint: fingerprint(workload),
        reads: read_latencies_us.len(),
        read_p50_us: percentile(&read_latencies_us, 0.50),
        read_p99_us: percentile(&read_latencies_us, 0.99),
        mutations,
        mutations_per_s: if secs > 0.0 {
            mutations as f64 / secs
        } else {
            0.0
        },
        flush_ms,
        mid_refinement_reads,
        cancellations: field("cancellations"),
        drift_repairs: field("drift_repairs"),
        refine_errors: field("refine_errors"),
        final_epoch: field("epoch"),
        final_num_blocks: field("num_blocks"),
        recovery: None,
    })
}

/// The crash-recovery leg: spawn a durable daemon on `state_dir`, feed it
/// every mutation batch of `workload` (flushed, so all are applied), kill
/// it without the clean-shutdown snapshot — a `SIGKILL` stand-in — and
/// time the warm restart from the same directory.
pub fn run_recovery_leg(
    spec: &ServeSpec,
    seed: u64,
    workload: &Workload,
    state_dir: &Path,
) -> Result<RecoveryReport, HsbpError> {
    let config = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        sbp: SbpConfig::new(Variant::Metropolis, seed),
        budget: RunBudget::unlimited(),
        state_dir: Some(state_dir.to_path_buf()),
        // Snapshot only at clean shutdown: the kill leaves the whole WAL
        // as the recovery source, so replayed_batches is deterministic.
        snapshot_every: 0,
        ..ServeConfig::default()
    };
    let handle = Server::spawn(config(), Graph::from_edges(0, &[]))?;
    {
        let addr = handle.local_addr().to_string();
        let mut client = ServeClient::connect(&addr)?;
        client.request(&format!(
            "{{\"op\":\"add_vertices\",\"count\":{}}}",
            spec.vertices
        ))?;
        for round in &workload.rounds {
            for line in &round.mutation_lines {
                client.request(line)?;
            }
            client.request("{\"op\":\"flush\"}")?;
        }
    }
    handle.kill();

    let started = Instant::now();
    let handle = Server::spawn(config(), Graph::from_edges(0, &[]))?;
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    let addr = handle.local_addr().to_string();
    let mut client = ServeClient::connect(&addr)?;
    let status = client.request("{\"op\":\"status\"}")?;
    let report = RecoveryReport {
        recovery_ms,
        replayed_batches: status
            .get("replayed_batches")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        recovered_epoch: status
            .get("recovered_epoch")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    };
    drop(client);
    handle.shutdown();
    handle.join();
    Ok(report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let a = generate_workload(&SMOKE, 42);
        let b = generate_workload(&SMOKE, 42);
        assert_eq!(a, b);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = generate_workload(&SMOKE, 43);
        assert_ne!(fingerprint(&a), fingerprint(&c), "seed changes the stream");
    }

    #[test]
    fn seed_42_smoke_fingerprint_is_pinned() {
        // The value CI and the verify notes expect from `bench_serve --mode
        // smoke --seed 42`; any other means the workload generator changed.
        let w = generate_workload(&SMOKE, 42);
        assert_eq!(fingerprint(&w), 0x9a93_f66f_b751_6377);
    }

    #[test]
    fn workload_lines_are_valid_protocol() {
        let w = generate_workload(&SMOKE, 7);
        assert_eq!(w.rounds.len(), SMOKE.rounds);
        for round in &w.rounds {
            assert!(!round.mutation_lines.is_empty());
            assert_eq!(round.read_lines.len(), SMOKE.reads_per_round);
            for line in round.mutation_lines.iter().chain(&round.read_lines) {
                let parsed = parse(line).unwrap();
                hsbp_serve::Request::parse(&parsed).unwrap();
            }
        }
    }

    #[test]
    fn report_serialises_with_schema_version() {
        let report = ServeReport {
            mode: "smoke".into(),
            seed: 1,
            workload_fingerprint: 0xdead_beef,
            reads: 10,
            read_p50_us: 12.5,
            read_p99_us: 88.0,
            mutations: 100,
            mutations_per_s: 5_000.0,
            flush_ms: vec![1.5, 2.0],
            mid_refinement_reads: 3,
            cancellations: 1,
            drift_repairs: 0,
            refine_errors: 0,
            final_epoch: 6,
            final_num_blocks: 4,
            recovery: None,
        };
        let parsed = parse(&report.to_json()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(BENCH_SERVE_SCHEMA_VERSION))
        );
        assert_eq!(parsed.get("read_p50_us").and_then(Json::as_f64), Some(12.5));
        assert_eq!(
            parsed.get("workload_fingerprint").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        // --connect mode (no recovery leg): explicit null, so consumers can
        // tell "not measured" from "missing field".
        assert!(matches!(parsed.get("recovery"), Some(Json::Null)));
    }

    #[test]
    fn recovery_leg_serialises_under_schema_v2() {
        let mut report = ServeReport {
            mode: "smoke".into(),
            seed: 1,
            workload_fingerprint: 1,
            reads: 1,
            read_p50_us: 1.0,
            read_p99_us: 2.0,
            mutations: 1,
            mutations_per_s: 1.0,
            flush_ms: vec![],
            mid_refinement_reads: 0,
            cancellations: 0,
            drift_repairs: 0,
            refine_errors: 0,
            final_epoch: 1,
            final_num_blocks: 1,
            recovery: None,
        };
        report.recovery = Some(RecoveryReport {
            recovery_ms: 17.25,
            replayed_batches: 9,
            recovered_epoch: 0,
        });
        let parsed = parse(&report.to_json()).unwrap();
        let rec = parsed.get("recovery").expect("recovery object");
        assert_eq!(rec.get("recovery_ms").and_then(Json::as_f64), Some(17.25));
        assert_eq!(rec.get("replayed_batches").and_then(Json::as_u64), Some(9));
        assert_eq!(rec.get("recovered_epoch").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn percentiles_handle_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }
}
