//! The daemon: a TCP accept loop, per-connection protocol threads, and the
//! background refinement driver.
//!
//! Threading model (see DESIGN.md §12):
//!
//! * **accept loop** — non-blocking `TcpListener`, polls the shutdown flag
//!   between accepts, enforces the connection cap, spawns one thread per
//!   connection.
//! * **connection threads** — read one JSON request per line (under an
//!   idle deadline), answer from the latest [`Snapshot`] (reads never touch
//!   the refinement loop) or enqueue mutation batches into the
//!   [`MutationLog`] — after the batch is written to the WAL, when a state
//!   directory is configured.
//! * **refinement driver** — single consumer: drains the log, applies the
//!   batch to the [`EvolvingGraph`], rebuilds the CSR, and runs the
//!   warm-started dirty-region resweep under a fresh [`CancelToken`] armed
//!   in the log, so the *next* batch cancels it mid-sweep. Publishing a
//!   snapshot and marking the sequence applied are the only state writes;
//!   on the snapshot cadence the published snapshot is persisted and the
//!   WAL truncated (DESIGN.md §13).
//!
//! Durable append ordering (§13): every mutation producer holds the one
//! durability mutex, predicts the batch's sequence number, appends the WAL
//! record (fsync per `--fsync`), and only then enqueues the batch — so an
//! acknowledged batch is always on disk, and a crash between WAL append
//! and acknowledgement costs at most one *unacknowledged* batch being
//! replayed (at-least-once, never lost).

use crate::faults::ServeFaultPlan;
use crate::json::{num_u, obj, Json};
use crate::mutlog::{AppendError, MutationLog};
use crate::protocol::{
    error_response, ErrorKind, Request, BENCH_SERVE_SCHEMA_VERSION, PROTOCOL_VERSION,
};
use crate::recover::StateDir;
use crate::state::{EvolvingGraph, Mutation, Snapshot, StateHandle};
use crate::wal::{FsyncPolicy, Wal};
use hsbp_core::{refine_partition, CancelToken, HsbpError, RunBudget, SbpConfig, StopCause};
use hsbp_graph::{Graph, Vertex};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the daemon's knobs: where to listen, how each refinement
/// round runs, and how state is made durable.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Refinement kernel configuration (seed, beta, audit cadence, strict
    /// mode, convergence threshold, per-round sweep cap).
    pub sbp: SbpConfig,
    /// Budget applied to every refinement round (and the initial full run).
    pub budget: RunBudget,
    /// Artificial delay between arming a refinement round and its first
    /// sweep, in milliseconds. Load-shaping hook: widens the window in
    /// which a new batch cancels the round; keep 0 in production.
    pub refine_pause_ms: u64,
    /// State directory for the WAL and persisted snapshots. `None` keeps
    /// everything in memory (pre-durability behaviour). With `Some`, the
    /// daemon warm-starts from whatever the directory holds.
    pub state_dir: Option<PathBuf>,
    /// When the WAL is fsynced (`--fsync always|batch|never`).
    pub fsync: FsyncPolicy,
    /// Persist a snapshot (and truncate the WAL) every this many applied
    /// batches; 0 = only on clean shutdown.
    pub snapshot_every: u64,
    /// Bound on enqueued-but-unapplied mutations; over-limit appends get a
    /// typed `busy` error. 0 = unbounded.
    pub max_pending: usize,
    /// Concurrent connection cap; excess connections get one `busy` line
    /// and are closed. 0 = unbounded.
    pub max_connections: usize,
    /// Per-connection idle read deadline in milliseconds; a connection
    /// silent this long is closed. 0 = no deadline.
    pub idle_timeout_ms: u64,
    /// Deterministic fault plan for the durability path (tests/CI).
    pub fault_plan: ServeFaultPlan,
    /// How injected crashes die: `true` = `process::abort()` (the CLI, so
    /// the CI crash job sees a real process death); `false` = soft crash —
    /// stop acknowledging and shut down *without* the clean-shutdown
    /// snapshot, leaving exactly the on-disk state a hard kill would.
    pub hard_faults: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            sbp: SbpConfig::default(),
            budget: RunBudget::unlimited(),
            refine_pause_ms: 0,
            state_dir: None,
            fsync: FsyncPolicy::Always,
            snapshot_every: 32,
            max_pending: 100_000,
            max_connections: 64,
            idle_timeout_ms: 300_000,
            fault_plan: ServeFaultPlan::none(),
            hard_faults: false,
        }
    }
}

/// Durable-state bundle, one mutex for every producer and the driver.
#[derive(Debug)]
struct Durability {
    dir: StateDir,
    wal: Wal,
    /// Sequence covered by the last persisted snapshot.
    last_snapshot_seq: u64,
    /// Snapshot save attempts (1-based), for `crash-before-rename:NTH`.
    snapshot_saves: u64,
}

/// Shared daemon state, one `Arc` across every thread.
#[derive(Debug)]
pub(crate) struct ServeCtx {
    pub(crate) cfg: ServeConfig,
    pub(crate) state: StateHandle,
    pub(crate) log: MutationLog,
    pub(crate) shutdown: AtomicBool,
    /// Set by an injected crash (or [`ServerHandle::kill`]): shut down
    /// *without* the clean-shutdown snapshot.
    pub(crate) crashed: AtomicBool,
    /// Refinement rounds that published a snapshot.
    pub(crate) refines: AtomicU64,
    /// Drift events repaired across all rounds (non-strict mode).
    pub(crate) drift_repairs: AtomicU64,
    /// Refinement rounds that failed (strict drift, invalid state).
    pub(crate) refine_errors: AtomicU64,
    /// Live connections (for the cap and `status.connections`).
    pub(crate) connections: AtomicU64,
    durable: Option<Mutex<Durability>>,
    /// Epoch loaded from the persisted snapshot at startup, if any.
    pub(crate) recovered_epoch: Option<u64>,
    /// WAL tail records replayed at startup.
    pub(crate) replayed_batches: u64,
}

fn lock_durable(m: &Mutex<Durability>) -> MutexGuard<'_, Durability> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Stop the daemon the way a crash would: no shutdown snapshot, no more
/// acknowledgements. Aborts the process instead under `hard_faults`.
fn inject_crash(ctx: &ServeCtx) {
    if ctx.cfg.hard_faults {
        std::process::abort();
    }
    ctx.crashed.store(true, Ordering::Relaxed);
    ctx.shutdown.store(true, Ordering::Relaxed);
    ctx.log.close();
}

/// A running daemon. Dropping the handle does **not** stop the server —
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct Server {
    _private: (),
}

/// Join/control handle for a spawned server.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServeCtx>,
    accept_thread: JoinHandle<()>,
    driver_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a `quit` request or [`ServerHandle::shutdown`] landed.
    pub fn is_shutting_down(&self) -> bool {
        self.ctx.shutdown.load(Ordering::Relaxed)
    }

    /// Request an orderly stop (idempotent): wakes the accept loop, cancels
    /// any in-flight refinement, releases every flush waiter. With a state
    /// directory, the driver persists a final snapshot on its way out.
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        self.ctx.log.close();
    }

    /// Crash-like stop for recovery tests: shut down *without* the final
    /// snapshot, so the on-disk state is exactly what a `SIGKILL` at this
    /// point would leave — a stale snapshot plus a WAL tail.
    pub fn kill(self) {
        self.ctx.crashed.store(true, Ordering::Relaxed);
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        self.ctx.log.close();
        let _ = self.accept_thread.join();
        let _ = self.driver_thread.join();
    }

    /// Wait for the accept loop and the refinement driver to exit.
    pub fn join(self) {
        let _ = self.accept_thread.join();
        let _ = self.driver_thread.join();
    }
}

/// Run one full detection to build the epoch-0 snapshot (empty graphs get
/// a trivial one).
fn initial_snapshot(config: &ServeConfig, graph: Arc<Graph>) -> Result<Snapshot, HsbpError> {
    if graph.num_vertices() == 0 {
        return Ok(Snapshot::evaluate(0, 0, graph, Vec::new(), 0, false));
    }
    let result =
        hsbp_core::run_sbp_budgeted(&graph, &config.sbp, &config.budget, &CancelToken::new())?;
    Ok(Snapshot::evaluate(
        0,
        0,
        graph,
        result.assignment,
        result.num_blocks,
        result.stats.stop_cause.is_truncated(),
    ))
}

/// Replay one WAL record as a full refinement round — the same sequence of
/// steps `driver_loop` runs, so a recovered daemon reaches the state a
/// fresh daemon fed the same batches (sequentially, uncancelled) reaches.
fn replay_round(
    egraph: &mut EvolvingGraph,
    snap: &Snapshot,
    seq: u64,
    batch: &[Mutation],
    config: &ServeConfig,
) -> Result<Snapshot, HsbpError> {
    let mut dirty: Vec<Vertex> = Vec::new();
    for m in batch {
        egraph.apply(m, &mut dirty);
    }
    dirty.sort_unstable();
    dirty.dedup();
    let graph = Arc::new(egraph.build_csr());
    let out = refine_partition(
        &graph,
        &snap.assignment,
        snap.num_blocks.max(1),
        &dirty,
        &config.sbp,
        &config.budget,
        &CancelToken::new(),
    )?;
    Ok(Snapshot::evaluate(
        snap.epoch + 1,
        seq,
        graph,
        out.assignment,
        out.num_blocks,
        out.truncated,
    ))
}

impl Server {
    /// Bind, build the starting state — a cold full detection on `initial`,
    /// or with [`ServeConfig::state_dir`] a warm restart (load snapshot,
    /// replay the WAL tail, seed refinement from the recovered partition;
    /// `initial` is ignored when the directory holds state) — then start
    /// the refinement driver and the accept loop and return immediately.
    pub fn spawn(config: ServeConfig, initial: Graph) -> Result<ServerHandle, HsbpError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| HsbpError::Network {
            addr: config.addr.clone(),
            message: format!("bind failed: {e}"),
        })?;
        let addr = listener.local_addr().map_err(|e| HsbpError::Network {
            addr: config.addr.clone(),
            message: format!("local_addr failed: {e}"),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| HsbpError::Network {
                addr: addr.to_string(),
                message: format!("set_nonblocking failed: {e}"),
            })?;

        let mut recovered_epoch = None;
        let mut replayed_batches = 0u64;
        let (egraph, snapshot, durable) = match &config.state_dir {
            None => {
                let egraph = EvolvingGraph::from_graph(&initial);
                let snapshot = initial_snapshot(&config, Arc::new(initial))?;
                (egraph, snapshot, None)
            }
            Some(dir) => {
                let state = StateDir::open_or_create(dir, &config.sbp)?;
                match state.recover()? {
                    Some(rec) => {
                        let mut egraph = rec.snapshot.egraph;
                        recovered_epoch = Some(rec.snapshot.epoch);
                        let mut snap = Snapshot::evaluate(
                            rec.snapshot.epoch,
                            rec.snapshot.applied_seq,
                            Arc::new(egraph.build_csr()),
                            rec.snapshot.assignment,
                            rec.snapshot.num_blocks,
                            false,
                        );
                        for (seq, batch) in &rec.tail {
                            snap = replay_round(&mut egraph, &snap, *seq, batch, &config)?;
                            replayed_batches += 1;
                        }
                        let last_snapshot_seq = rec.snapshot.applied_seq;
                        let wal = Wal::open(&state.wal_path(), config.fsync, rec.wal_good_bytes)?;
                        (
                            egraph,
                            snap,
                            Some(Durability {
                                dir: state,
                                wal,
                                last_snapshot_seq,
                                snapshot_saves: 0,
                            }),
                        )
                    }
                    None => {
                        // Fresh state directory: cold start, then persist
                        // the epoch-0 snapshot so even a crash before the
                        // first cadence warm-starts.
                        let egraph = EvolvingGraph::from_graph(&initial);
                        let snapshot = initial_snapshot(&config, Arc::new(initial))?;
                        state.save_snapshot(&snapshot, || true)?;
                        let wal = Wal::open(&state.wal_path(), config.fsync, 0)?;
                        (
                            egraph,
                            snapshot,
                            Some(Durability {
                                dir: state,
                                wal,
                                last_snapshot_seq: 0,
                                snapshot_saves: 1,
                            }),
                        )
                    }
                }
            }
        };

        let log = MutationLog::new();
        log.reset_seq(snapshot.applied_seq);
        let ctx = Arc::new(ServeCtx {
            cfg: config,
            state: StateHandle::new(snapshot),
            log,
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            refines: AtomicU64::new(0),
            drift_repairs: AtomicU64::new(0),
            refine_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            durable: durable.map(Mutex::new),
            recovered_epoch,
            replayed_batches,
        });

        let driver_thread = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || driver_loop(&ctx, egraph))
        };
        let accept_thread = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || accept_loop(&listener, &ctx))
        };
        Ok(ServerHandle {
            addr,
            ctx,
            accept_thread,
            driver_thread,
        })
    }
}

/// Persist the published snapshot and truncate the WAL to its sequence.
/// Returns `false` when an injected `crash-before-rename` fired (soft
/// mode) — the daemon is crashing, stop the driver.
fn persist_snapshot(ctx: &ServeCtx, d: &mut Durability, snap: &Snapshot) -> bool {
    d.snapshot_saves += 1;
    let crash_here = ctx.cfg.fault_plan.crash_before_rename == Some(d.snapshot_saves);
    let hard = ctx.cfg.hard_faults;
    let saved = d.dir.save_snapshot(snap, || {
        if crash_here && hard {
            std::process::abort();
        }
        !crash_here
    });
    if crash_here {
        inject_crash(ctx);
        return false;
    }
    match saved.and_then(|()| d.wal.truncate_to(snap.applied_seq)) {
        Ok(()) => {
            d.last_snapshot_seq = snap.applied_seq;
            true
        }
        Err(e) => {
            // Persistence failed but the in-memory state is fine: keep
            // serving; the WAL still covers everything since the last good
            // snapshot, so recovery is unharmed.
            eprintln!("serve: snapshot persist failed: {e}");
            true
        }
    }
}

/// The single-consumer refinement loop.
fn driver_loop(ctx: &ServeCtx, mut egraph: EvolvingGraph) {
    let cfg = &ctx.cfg;
    // Dirty vertices whose resweep a cancellation interrupted; folded into
    // the next round so truncated work is finished, not lost.
    let mut carry_dirty: Vec<Vertex> = Vec::new();
    let mut slow_apply_pending = cfg.fault_plan.slow_apply;
    while let Some((batch, seq)) = ctx.log.wait_drain() {
        if let Some((fault_seq, ms)) = slow_apply_pending {
            if seq >= fault_seq {
                // Injected apply stall: the backlog builds while we sleep,
                // deterministically driving `busy` back-pressure tests.
                std::thread::sleep(Duration::from_millis(ms));
                slow_apply_pending = None;
            }
        }
        let mut dirty = std::mem::take(&mut carry_dirty);
        for m in &batch {
            egraph.apply(m, &mut dirty);
        }
        dirty.sort_unstable();
        dirty.dedup();
        let graph = Arc::new(egraph.build_csr());
        let token = CancelToken::new();
        if !ctx.log.arm(&token) {
            // A newer batch raced in while we were rebuilding: restart the
            // round against the merged topology instead of refining twice.
            carry_dirty = dirty;
            continue;
        }
        if cfg.refine_pause_ms > 0 {
            // Armed but not yet sweeping: a batch landing in this window
            // cancels the round exactly like one landing mid-sweep.
            std::thread::sleep(Duration::from_millis(cfg.refine_pause_ms));
        }
        let warm = ctx.state.load();
        let outcome = refine_partition(
            &graph,
            &warm.assignment,
            warm.num_blocks.max(1),
            &dirty,
            &cfg.sbp,
            &cfg.budget,
            &token,
        );
        ctx.log.disarm();
        match outcome {
            Ok(out) => {
                ctx.refines.fetch_add(1, Ordering::Relaxed);
                ctx.drift_repairs
                    .fetch_add(out.stats.drift_events.len() as u64, Ordering::Relaxed);
                if out.truncated && out.stats.stop_cause == StopCause::Cancelled {
                    // The interrupted region re-sweeps with the next batch.
                    carry_dirty.clone_from(&dirty);
                }
                let snapshot = Snapshot::evaluate(
                    warm.epoch + 1,
                    seq,
                    graph,
                    out.assignment,
                    out.num_blocks,
                    out.truncated,
                );
                ctx.state.publish(snapshot);
                ctx.log.mark_applied(seq);
            }
            Err(_) => {
                // Strict-mode drift or an invalid warm state: keep serving
                // the last good snapshot, count the failure, and unblock
                // flush waiters (the mutations are in the topology; only
                // the partition refresh failed).
                ctx.refine_errors.fetch_add(1, Ordering::Relaxed);
                carry_dirty = dirty;
                ctx.log.mark_applied(seq);
            }
        }
        // Snapshot cadence: persist once the WAL has accumulated
        // `snapshot_every` applied batches past the last persisted one.
        if let Some(durable) = &ctx.durable {
            let mut d = lock_durable(durable);
            if cfg.snapshot_every > 0 && seq - d.last_snapshot_seq >= cfg.snapshot_every {
                let snap = ctx.state.load();
                if !persist_snapshot(ctx, &mut d, &snap) {
                    return; // injected crash before the rename
                }
            }
        }
    }
    // Clean shutdown: persist the final snapshot so restart needs no
    // replay. A crash-like stop (`kill`, injected crash) skips this — the
    // WAL tail is the recovery source, as after a real crash.
    if let Some(durable) = &ctx.durable {
        if !ctx.crashed.load(Ordering::Relaxed) {
            let mut d = lock_durable(durable);
            let snap = ctx.state.load();
            if snap.applied_seq > d.last_snapshot_seq || d.snapshot_saves == 0 {
                let _ = persist_snapshot(ctx, &mut d, &snap);
            } else {
                let _ = d.wal.sync();
            }
        }
    }
}

/// Non-blocking accept loop; exits when the shutdown flag is set.
fn accept_loop(listener: &TcpListener, ctx: &Arc<ServeCtx>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let cap = ctx.cfg.max_connections;
    while !ctx.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if cap > 0 && ctx.connections.load(Ordering::Relaxed) >= cap as u64 {
                    // Over the cap: one typed `busy` line, then close.
                    let mut line =
                        error_response(ErrorKind::Busy, &format!("connection limit {cap} reached"))
                            .to_line();
                    line.push('\n');
                    let _ = stream.write_all(line.as_bytes());
                    continue;
                }
                ctx.connections.fetch_add(1, Ordering::Relaxed);
                let ctx = Arc::clone(ctx);
                connections.push(std::thread::spawn(move || {
                    let _ = serve_connection(stream, &ctx);
                    ctx.connections.fetch_sub(1, Ordering::Relaxed);
                }));
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        connections.retain(|h| !h.is_finished());
    }
    // Orderly drain: connection threads poll the flag via read timeouts.
    ctx.log.close();
    for h in connections {
        let _ = h.join();
    }
}

/// Longest request line a connection may send (1 MiB, newline excluded).
/// The largest line any in-repo client sends is the 100 000-byte nested
/// array of the serve parse-error test; a 150-edge mutation batch is about
/// 3 KB. A longer line gets one `parse` error and the connection closes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One connection: read request lines, write response lines.
fn serve_connection(stream: TcpStream, ctx: &ServeCtx) -> Result<(), HsbpError> {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    let net_err = |message: String| HsbpError::Network {
        addr: peer.clone(),
        message,
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| net_err(format!("set_read_timeout failed: {e}")))?;
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| net_err(format!("set_write_timeout failed: {e}")))?;
    let idle_deadline = match ctx.cfg.idle_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let mut last_activity = Instant::now();
    let mut stream = stream;
    let mut acc: Vec<u8> = Vec::new();
    // Leading bytes of `acc` already known to hold no newline.
    let mut scanned = 0;
    let mut buf = [0u8; 4096];
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // client closed
            Ok(n) => n,
            Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {
                if idle_deadline.is_some_and(|d| last_activity.elapsed() > d) {
                    return Ok(()); // idle deadline: reclaim the slot
                }
                continue;
            }
            Err(e) => return Err(net_err(format!("read failed: {e}"))),
        };
        last_activity = Instant::now();
        acc.extend_from_slice(&buf[..n]);
        while let Some(offset) = acc[scanned..].iter().position(|&b| b == b'\n') {
            let eol = scanned + offset;
            scanned = 0;
            if eol > MAX_LINE_BYTES {
                return reject_long_line(&mut stream, &net_err);
            }
            let line: Vec<u8> = acc.drain(..=eol).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let (response, quit) = handle_line(text, ctx);
            if let Some(response) = response {
                write_line(&mut stream, &response, &net_err)?;
            }
            if quit {
                ctx.shutdown.store(true, Ordering::Relaxed);
                ctx.log.close();
                return Ok(());
            }
        }
        scanned = acc.len();
        if scanned > MAX_LINE_BYTES {
            return reject_long_line(&mut stream, &net_err);
        }
    }
}

/// Write one response line.
fn write_line(
    stream: &mut TcpStream,
    response: &Json,
    net_err: &impl Fn(String) -> HsbpError,
) -> Result<(), HsbpError> {
    let mut out = response.to_line();
    out.push('\n');
    stream
        .write_all(out.as_bytes())
        .map_err(|e| net_err(format!("write failed: {e}")))
}

/// Answer a request line longer than [`MAX_LINE_BYTES`] with one typed
/// `parse` error, then close the connection: there is no request boundary
/// to resume from. The close lingers for up to a second, discarding what
/// the client still sends, so that unread bytes do not reset the
/// connection before the client has read the error.
fn reject_long_line(
    stream: &mut TcpStream,
    net_err: &impl Fn(String) -> HsbpError,
) -> Result<(), HsbpError> {
    let message = format!("request line exceeds {MAX_LINE_BYTES} bytes; closing connection");
    write_line(stream, &error_response(ErrorKind::Parse, &message), net_err)?;
    let _ = stream.shutdown(Shutdown::Write);
    let linger_until = Instant::now() + Duration::from_secs(1);
    let mut sink = [0u8; 4096];
    while Instant::now() < linger_until {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    Ok(())
}

/// Accept one mutation batch: WAL first (when durable), then enqueue, then
/// acknowledge — under back-pressure and the fault plan. `None` response =
/// injected crash (the connection drops without a line, like a real one).
fn handle_mutate(batch: Vec<Mutation>, ctx: &ServeCtx) -> (Option<Json>, bool) {
    let queued = batch.len();
    let max = ctx.cfg.max_pending;
    let busy = |pending: usize| {
        error_response(
            ErrorKind::Busy,
            &format!("mutation backlog full ({pending} pending, limit {max}); retry later"),
        )
    };
    let seq = match &ctx.durable {
        None => match ctx.log.try_append(batch, max) {
            Ok(seq) => seq,
            Err(AppendError::Busy { pending, .. }) => return (Some(busy(pending)), false),
            Err(AppendError::ShuttingDown) => {
                return (
                    Some(error_response(
                        ErrorKind::ShuttingDown,
                        "daemon is shutting down",
                    )),
                    false,
                )
            }
        },
        Some(durable) => {
            // Every producer holds this mutex, so the predicted sequence is
            // exact and WAL records land in sequence order.
            let mut d = lock_durable(durable);
            if ctx.shutdown.load(Ordering::Relaxed) {
                return (
                    Some(error_response(
                        ErrorKind::ShuttingDown,
                        "daemon is shutting down",
                    )),
                    false,
                );
            }
            let pending = ctx.log.queue_depth();
            if max > 0 && pending + queued > max {
                return (Some(busy(pending)), false); // refused before any WAL write
            }
            let seq = ctx.log.next_seq();
            if ctx.cfg.fault_plan.torn_write == Some(seq) {
                // A crash mid-append: a prefix of the record reaches disk,
                // the client never hears back.
                let _ = d.wal.append_torn(seq, &batch, 9);
                drop(d);
                inject_crash(ctx);
                return (None, true);
            }
            if let Err(e) = d.wal.append(seq, &batch) {
                // Durability is broken: refuse the batch (an ack would lie)
                // and stop the daemon rather than silently degrade.
                eprintln!("serve: WAL append failed, shutting down: {e}");
                drop(d);
                ctx.shutdown.store(true, Ordering::Relaxed);
                ctx.log.close();
                return (
                    Some(error_response(
                        ErrorKind::ShuttingDown,
                        "write-ahead log failure; daemon is shutting down",
                    )),
                    false,
                );
            }
            if ctx.cfg.fault_plan.crash_after_wal == Some(seq) {
                // The record is durable; the ack never goes out. Recovery
                // must replay it (at-least-once).
                drop(d);
                inject_crash(ctx);
                return (None, true);
            }
            match ctx.log.try_append(batch, 0) {
                Ok(s) => {
                    debug_assert_eq!(s, seq, "durable mutex serialises producers");
                    s
                }
                Err(_) => {
                    return (
                        Some(error_response(
                            ErrorKind::ShuttingDown,
                            "daemon is shutting down",
                        )),
                        false,
                    )
                }
            }
        }
    };
    (
        Some(obj(vec![
            ("ok", Json::Bool(true)),
            ("seq", num_u(seq)),
            ("queued", num_u(queued as u64)),
        ])),
        false,
    )
}

/// Decode, dispatch, encode. Returns the response (`None` = close without
/// responding, as an injected crash does) and whether this request shuts
/// the daemon down.
pub(crate) fn handle_line(line: &str, ctx: &ServeCtx) -> (Option<Json>, bool) {
    let err = |kind: ErrorKind, msg: &str| (Some(error_response(kind, msg)), false);
    let parsed = match crate::json::parse(line) {
        Ok(v) => v,
        Err(e) => return err(ErrorKind::Parse, &format!("bad JSON: {e}")),
    };
    let request = match Request::parse(&parsed) {
        Ok(r) => r,
        Err((kind, e)) => return err(kind, &e),
    };
    match request {
        Request::Version => (
            Some(obj(vec![
                ("ok", Json::Bool(true)),
                ("crate", Json::Str(env!("CARGO_PKG_VERSION").into())),
                ("protocol", num_u(u64::from(PROTOCOL_VERSION))),
                (
                    "bench_schema",
                    obj(vec![(
                        "serve",
                        num_u(u64::from(BENCH_SERVE_SCHEMA_VERSION)),
                    )]),
                ),
            ])),
            false,
        ),
        Request::Mutate(batch) => handle_mutate(batch, ctx),
        Request::Membership(vertices) => {
            let snap = ctx.state.load();
            let mut blocks = Vec::with_capacity(vertices.len());
            for v in &vertices {
                match snap.assignment.get(*v as usize) {
                    Some(b) => blocks.push(num_u(u64::from(*b))),
                    None => {
                        return err(
                            ErrorKind::BadRequest,
                            &format!(
                                "vertex {v} out of range (snapshot has {})",
                                snap.assignment.len()
                            ),
                        )
                    }
                }
            }
            (
                Some(obj(vec![
                    ("ok", Json::Bool(true)),
                    ("epoch", num_u(snap.epoch)),
                    ("blocks", Json::Arr(blocks)),
                ])),
                false,
            )
        }
        Request::BlockStats(which) => {
            let snap = ctx.state.load();
            let stat_obj = |id: usize, s: &crate::state::BlockStats| {
                obj(vec![
                    ("block", num_u(id as u64)),
                    ("size", num_u(s.size as u64)),
                    ("d_out", num_u(s.d_out)),
                    ("d_in", num_u(s.d_in)),
                ])
            };
            let blocks = match which {
                Some(b) => match snap.blocks.get(b as usize) {
                    Some(s) => vec![stat_obj(b as usize, s)],
                    None => {
                        return err(
                            ErrorKind::BadRequest,
                            &format!(
                                "block {b} out of range (snapshot has {})",
                                snap.blocks.len()
                            ),
                        )
                    }
                },
                None => snap
                    .blocks
                    .iter()
                    .enumerate()
                    .map(|(i, s)| stat_obj(i, s))
                    .collect(),
            };
            (
                Some(obj(vec![
                    ("ok", Json::Bool(true)),
                    ("epoch", num_u(snap.epoch)),
                    ("num_blocks", num_u(snap.num_blocks as u64)),
                    ("blocks", Json::Arr(blocks)),
                ])),
                false,
            )
        }
        Request::Mdl => {
            let snap = ctx.state.load();
            (
                Some(obj(vec![
                    ("ok", Json::Bool(true)),
                    ("epoch", num_u(snap.epoch)),
                    ("mdl", Json::Num(snap.mdl)),
                    ("normalized_mdl", Json::Num(snap.normalized_mdl)),
                    ("num_blocks", num_u(snap.num_blocks as u64)),
                    ("truncated", Json::Bool(snap.truncated)),
                ])),
                false,
            )
        }
        Request::Status => {
            let snap = ctx.state.load();
            let (pending, enq, applied, cancels) = ctx.log.stats();
            let (wal_bytes, last_snapshot_seq) = match &ctx.durable {
                Some(durable) => {
                    let d = lock_durable(durable);
                    (d.wal.bytes(), d.last_snapshot_seq)
                }
                None => (0, 0),
            };
            (
                Some(obj(vec![
                    ("ok", Json::Bool(true)),
                    ("epoch", num_u(snap.epoch)),
                    ("num_vertices", num_u(snap.graph.num_vertices() as u64)),
                    ("num_edges", num_u(snap.graph.num_edges() as u64)),
                    ("num_blocks", num_u(snap.num_blocks as u64)),
                    ("pending_batches", num_u(pending as u64)),
                    ("queue_depth", num_u(ctx.log.queue_depth() as u64)),
                    ("seq_enqueued", num_u(enq)),
                    ("seq_applied", num_u(applied)),
                    ("cancellations", num_u(cancels)),
                    ("refines", num_u(ctx.refines.load(Ordering::Relaxed))),
                    (
                        "drift_repairs",
                        num_u(ctx.drift_repairs.load(Ordering::Relaxed)),
                    ),
                    (
                        "refine_errors",
                        num_u(ctx.refine_errors.load(Ordering::Relaxed)),
                    ),
                    (
                        "connections",
                        num_u(ctx.connections.load(Ordering::Relaxed)),
                    ),
                    ("wal_bytes", num_u(wal_bytes)),
                    ("last_snapshot_seq", num_u(last_snapshot_seq)),
                    (
                        "recovered_epoch",
                        match ctx.recovered_epoch {
                            Some(e) => num_u(e),
                            None => Json::Null,
                        },
                    ),
                    ("replayed_batches", num_u(ctx.replayed_batches)),
                ])),
                false,
            )
        }
        Request::Flush => {
            let (_, enq, _, _) = ctx.log.stats();
            let reached = ctx.log.wait_applied(enq);
            let snap = ctx.state.load();
            (
                Some(obj(vec![
                    ("ok", Json::Bool(reached)),
                    ("epoch", num_u(snap.epoch)),
                    ("seq_applied", num_u(snap.applied_seq)),
                ])),
                false,
            )
        }
        Request::Quit => (Some(obj(vec![("ok", Json::Bool(true))])), true),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn test_ctx(cfg: ServeConfig) -> ServeCtx {
        let snapshot =
            Snapshot::evaluate(0, 0, Arc::new(Graph::from_edges(0, &[])), vec![], 0, false);
        ServeCtx {
            cfg,
            state: StateHandle::new(snapshot),
            log: MutationLog::new(),
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            refines: AtomicU64::new(0),
            drift_repairs: AtomicU64::new(0),
            refine_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            durable: None,
            recovered_epoch: None,
            replayed_batches: 0,
        }
    }

    fn kind_of(resp: &Json) -> Option<&str> {
        crate::protocol::error_kind_of(resp)
    }

    #[test]
    fn shutting_down_mutations_are_typed() {
        let ctx = test_ctx(ServeConfig::default());
        ctx.log.close();
        let (resp, quit) = handle_line("{\"op\":\"add_vertices\",\"count\":1}", &ctx);
        let resp = resp.unwrap();
        assert!(!quit);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(kind_of(&resp), Some("shutting_down"));
    }

    #[test]
    fn over_limit_append_is_busy_and_log_unharmed() {
        let ctx = test_ctx(ServeConfig {
            max_pending: 2,
            ..ServeConfig::default()
        });
        let (resp, _) = handle_line("{\"op\":\"add_vertices\",\"count\":1}", &ctx);
        assert_eq!(
            resp.unwrap().get("ok").and_then(Json::as_bool),
            Some(true),
            "first batch fits"
        );
        // Two pending mutations + 6 incoming > 2: typed busy.
        let (resp, _) = handle_line("{\"op\":\"add_edges\",\"edges\":[[0,1],[1,2],[2,3]]}", &ctx);
        let resp = resp.unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(kind_of(&resp), Some("busy"));
        // The refused batch was never enqueued.
        assert_eq!(ctx.log.queue_depth(), 1);
        // Reads still work on the same "connection".
        let (status, _) = handle_line("{\"op\":\"status\"}", &ctx);
        let status = status.unwrap();
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(status.get("queue_depth").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn parse_and_unknown_command_kinds_are_distinct() {
        let ctx = test_ctx(ServeConfig::default());
        let (resp, _) = handle_line("{not json", &ctx);
        assert_eq!(kind_of(&resp.unwrap()), Some("parse"));
        let (resp, _) = handle_line("{\"op\":\"frobnicate\"}", &ctx);
        assert_eq!(kind_of(&resp.unwrap()), Some("unknown_command"));
        let (resp, _) = handle_line("{\"op\":\"membership\"}", &ctx);
        assert_eq!(kind_of(&resp.unwrap()), Some("bad_request"));
    }
}
