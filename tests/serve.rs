//! End-to-end tests for the `hsbp-serve` daemon: real TCP connections
//! against an in-process server — version handshake, mutation batches,
//! reads answered mid-refinement from the previous epoch, cooperative
//! cancellation without state poisoning, and orderly shutdown.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hsbp::serve::json::{parse, Json};
use hsbp::serve::{ServeConfig, Server, ServerHandle, PROTOCOL_VERSION};
use hsbp::{Graph, GraphBuilder, RunBudget, SbpConfig, Variant};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Minimal line-oriented protocol client.
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

    fn request(&mut self, line: &str) -> Json {
        let mut out = line.as_bytes().to_vec();
        out.push(b'\n');
        self.reader.get_mut().write_all(&out).unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        parse(response.trim()).unwrap()
    }

    fn ok(&mut self, line: &str) -> Json {
        let resp = self.request(line);
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

/// A planted 3-community graph.
fn planted(per: u32) -> Graph {
    let mut b = GraphBuilder::new((per * 3) as usize);
    let mut state = 0x5eedu64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for v in 0..per * 3 {
        let g = v / per;
        for _ in 0..5 {
            let t = if rnd() % 10 < 8 {
                g * per + rnd() % per
            } else {
                rnd() % (per * 3)
            };
            if t != v {
                b.add_edge(v, t);
            }
        }
    }
    b.build()
}

fn spawn_default(initial: Graph) -> ServerHandle {
    Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            sbp: SbpConfig::new(Variant::Metropolis, 7),
            budget: RunBudget::unlimited(),
            ..ServeConfig::default()
        },
        initial,
    )
    .unwrap()
}

#[test]
fn version_handshake_and_initial_reads() {
    let handle = spawn_default(planted(20));
    let mut client = Client::connect(&handle);

    let hello = client.ok("{\"op\":\"version\"}");
    assert_eq!(u(&hello, "protocol"), u64::from(PROTOCOL_VERSION));
    assert!(hello.get("crate").and_then(Json::as_str).is_some());

    // The initial full run published epoch 0 before the listener accepted.
    let mdl = client.ok("{\"op\":\"mdl\"}");
    assert_eq!(u(&mdl, "epoch"), 0);
    assert!(mdl.get("mdl").and_then(Json::as_f64).unwrap().is_finite());
    assert!(u(&mdl, "num_blocks") >= 2, "planted structure found");

    let members = client.ok("{\"op\":\"membership\",\"vertices\":[0,1,59]}");
    assert_eq!(
        members.get("blocks").and_then(Json::as_arr).unwrap().len(),
        3
    );

    let stats = client.ok("{\"op\":\"block_stats\"}");
    let blocks = stats.get("blocks").and_then(Json::as_arr).unwrap();
    assert_eq!(blocks.len() as u64, u(&stats, "num_blocks"));
    let total: u64 = blocks.iter().map(|b| u(b, "size")).sum();
    assert_eq!(total, 60, "block sizes partition the vertex set");

    // Malformed requests error without dropping the connection.
    let bad = client.request("{\"op\":\"membership\",\"vertices\":[9999]}");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let still_alive = client.ok("{\"op\":\"status\"}");
    assert_eq!(u(&still_alive, "epoch"), 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn mutations_refine_and_flush() {
    let handle = spawn_default(Graph::from_edges(0, &[]));
    let mut client = Client::connect(&handle);

    // Two triangles arriving as one batch.
    let resp = client.ok("{\"op\":\"add_edges\",\"edges\":[[0,1],[1,2],[2,0],[3,4],[4,5],[5,3]]}");
    assert_eq!(u(&resp, "seq"), 1);
    assert_eq!(u(&resp, "queued"), 6);

    let flushed = client.ok("{\"op\":\"flush\"}");
    assert!(u(&flushed, "epoch") >= 1);
    assert_eq!(u(&flushed, "seq_applied"), 1);

    let members = client.ok("{\"op\":\"membership\",\"vertices\":[0,1,2,3,4,5]}");
    let blocks: Vec<u64> = members
        .get("blocks")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|b| b.as_u64().unwrap())
        .collect();
    assert_eq!(blocks.len(), 6);

    // Remove a vertex: its edges vanish from the next snapshot.
    client.ok("{\"op\":\"remove_vertex\",\"vertex\":5}");
    client.ok("{\"op\":\"flush\"}");
    let status = client.ok("{\"op\":\"status\"}");
    assert_eq!(u(&status, "num_vertices"), 6, "ids are stable");
    assert_eq!(u(&status, "num_edges"), 4, "5's two incident edges dropped");
    assert_eq!(u(&status, "refine_errors"), 0);

    handle.shutdown();
    handle.join();
}

/// The acceptance-criteria test: reads are answered from the previous
/// epoch while refinement is mid-round, and a newer batch cancels the
/// in-flight round without poisoning state (every sweep audited strictly).
#[test]
fn reads_served_mid_refinement_and_cancellation_is_clean() {
    let handle = Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            sbp: SbpConfig {
                variant: Variant::Metropolis,
                seed: 11,
                // Audit after *every* sweep and fail hard on drift: if a
                // cancelled round ever left the model inconsistent, the
                // next round's refine would error and refine_errors > 0.
                audit_cadence: 1,
                strict_audit: true,
                ..Default::default()
            },
            budget: RunBudget::unlimited(),
            // Hold each armed round open 300 ms before its first sweep so
            // the test can deterministically read and cancel mid-round.
            refine_pause_ms: 300,
            ..ServeConfig::default()
        },
        planted(20),
    )
    .unwrap();
    let mut client = Client::connect(&handle);

    // Batch 1 starts a refinement round.
    client.ok("{\"op\":\"add_edges\",\"edges\":[[0,30],[30,55],[55,0],[7,41],[41,19]]}");
    std::thread::sleep(Duration::from_millis(60));

    // Reads answered NOW come from epoch 0 — refinement is armed and
    // unfinished, but reads are not blocked behind it.
    let during = client.ok("{\"op\":\"mdl\"}");
    assert_eq!(
        u(&during, "epoch"),
        0,
        "read served from the previous snapshot while refinement is in flight"
    );

    // Batch 2 lands while round 1 is armed: cooperative cancellation.
    client.ok("{\"op\":\"add_edges\",\"edges\":[[2,33],[33,58]]}");
    let flushed = client.ok("{\"op\":\"flush\"}");
    assert_eq!(u(&flushed, "seq_applied"), 2);

    let status = client.ok("{\"op\":\"status\"}");
    assert!(
        u(&status, "cancellations") >= 1,
        "batch 2 cancelled the in-flight round: {}",
        status.to_line()
    );
    assert_eq!(
        u(&status, "refine_errors"),
        0,
        "strict per-sweep audits found no drift after cancellation"
    );
    assert_eq!(u(&status, "drift_repairs"), 0);
    assert!(u(&status, "epoch") >= 1);

    // The final partition is still a valid answer for every vertex.
    let members = client.ok("{\"op\":\"membership\",\"vertices\":[0,30,55,7,41,2,33,58]}");
    assert_eq!(
        members.get("blocks").and_then(Json::as_arr).unwrap().len(),
        8
    );

    handle.shutdown();
    handle.join();
}

/// Pull `error.kind` out of a (v2, object-shaped) error response.
fn error_kind(resp: &Json) -> Option<String> {
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// Every protocol error carries a distinct machine-readable kind, and none
/// of them drop the connection.
#[test]
fn protocol_errors_are_typed_and_connection_survives() {
    let handle = spawn_default(planted(10));
    let mut client = Client::connect(&handle);

    let bad_json = client.request("{this is not json");
    assert_eq!(bad_json.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&bad_json).as_deref(), Some("parse"));
    assert!(
        bad_json
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .is_some(),
        "error object carries a human message too"
    );

    let unknown = client.request("{\"op\":\"frobnicate\"}");
    assert_eq!(error_kind(&unknown).as_deref(), Some("unknown_command"));

    let bad_req = client.request("{\"op\":\"membership\",\"vertices\":[9999]}");
    assert_eq!(error_kind(&bad_req).as_deref(), Some("bad_request"));

    // The same connection still answers reads after three errors.
    let status = client.ok("{\"op\":\"status\"}");
    assert_eq!(u(&status, "connections"), 1);

    handle.shutdown();
    handle.join();
}

/// A hostile line nested far past any stack is a typed parse error, not a
/// crashed daemon: the same connection keeps being served.
#[test]
fn deeply_nested_line_is_a_parse_error_and_connection_survives() {
    let handle = spawn_default(planted(10));
    let mut client = Client::connect(&handle);

    let deep = client.request(&"[".repeat(100_000));
    assert_eq!(deep.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&deep).as_deref(), Some("parse"));

    let version = client.ok("{\"op\":\"version\"}");
    assert_eq!(u(&version, "protocol"), u64::from(PROTOCOL_VERSION));

    handle.shutdown();
    handle.join();
}

/// Over-limit mutation batches get a typed `busy` error; the connection
/// stays usable and the backlog drains normally.
#[test]
fn back_pressure_returns_busy_and_recovers() {
    let handle = Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            sbp: SbpConfig::new(Variant::Metropolis, 3),
            // Hold each round open long enough that the first batch is
            // still unapplied when the second arrives.
            refine_pause_ms: 400,
            max_pending: 4,
            ..ServeConfig::default()
        },
        Graph::from_edges(0, &[]),
    )
    .unwrap();
    let mut client = Client::connect(&handle);

    // 3 pending mutations fit the bound of 4...
    let first = client.ok("{\"op\":\"add_edges\",\"edges\":[[0,1],[1,2],[2,0]]}");
    assert_eq!(u(&first, "seq"), 1);
    // ...but 3 more would exceed it while the driver still holds batch 1.
    let busy = client.request("{\"op\":\"add_edges\",\"edges\":[[3,4],[4,5],[5,3]]}");
    assert_eq!(busy.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&busy).as_deref(), Some("busy"));

    // Reads still answered on the same connection, and the refused batch
    // was never enqueued.
    let status = client.ok("{\"op\":\"status\"}");
    assert_eq!(u(&status, "seq_enqueued"), 1);

    // After the backlog drains, the same batch is accepted.
    client.ok("{\"op\":\"flush\"}");
    let retry = client.ok("{\"op\":\"add_edges\",\"edges\":[[3,4],[4,5],[5,3]]}");
    assert_eq!(u(&retry, "seq"), 2);
    client.ok("{\"op\":\"flush\"}");
    let status = client.ok("{\"op\":\"status\"}");
    assert_eq!(u(&status, "num_edges"), 6);

    handle.shutdown();
    handle.join();
}

/// Connections past the cap get one `busy` line and are closed; existing
/// connections are unaffected.
#[test]
fn connection_cap_rejects_excess_clients() {
    let handle = Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            sbp: SbpConfig::new(Variant::Metropolis, 5),
            max_connections: 1,
            ..ServeConfig::default()
        },
        Graph::from_edges(3, &[(0, 1), (1, 2)]),
    )
    .unwrap();
    let mut first = Client::connect(&handle);
    // Ensure the first connection is registered before the second dials.
    let status = first.ok("{\"op\":\"status\"}");
    assert_eq!(u(&status, "connections"), 1);

    let mut second = Client::connect(&handle);
    let mut line = String::new();
    second.reader.read_line(&mut line).unwrap();
    let resp = parse(line.trim()).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&resp).as_deref(), Some("busy"));
    // The rejected socket is closed: the next read returns EOF.
    line.clear();
    assert_eq!(second.reader.read_line(&mut line).unwrap(), 0);

    // The first connection never noticed.
    first.ok("{\"op\":\"mdl\"}");

    handle.shutdown();
    handle.join();
}

#[test]
fn quit_message_shuts_daemon_down() {
    let handle = spawn_default(Graph::from_edges(3, &[(0, 1), (1, 2)]));
    let addr = handle.local_addr();
    let mut client = Client::connect(&handle);
    let bye = client.ok("{\"op\":\"quit\"}");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    // join() returning proves the accept loop and driver exited.
    handle.join();
    // And the port is actually released.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
        "listener should be gone after quit"
    );
}

#[test]
fn bind_failure_is_a_typed_network_error() {
    let first = spawn_default(Graph::from_edges(0, &[]));
    let taken = first.local_addr().to_string();
    let err = match Server::spawn(
        ServeConfig {
            addr: taken.clone(),
            ..ServeConfig::default()
        },
        Graph::from_edges(0, &[]),
    ) {
        Ok(_) => panic!("second bind on {taken} should fail"),
        Err(e) => e,
    };
    match &err {
        hsbp::HsbpError::Network { addr, message } => {
            assert_eq!(addr, &taken);
            assert!(message.contains("bind"), "{message}");
        }
        other => panic!("expected Network error, got {other}"),
    }
    first.shutdown();
    first.join();
}
