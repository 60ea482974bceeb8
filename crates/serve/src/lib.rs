//! # hsbp-serve — resident community detection over an evolving graph
//!
//! The paper's algorithms are batch runs; this crate turns them into a
//! long-lived daemon. A std-only TCP server speaks line-delimited JSON
//! (one request object in, one response object out) and owns a graph plus
//! its blockmodel behind an epoch-swapped state handle:
//!
//! * **mutations** (`add_edges`, `remove_edges`, `add_vertices`,
//!   `remove_vertex`) are batched through a [`MutationLog`];
//! * **reads** (`membership`, `block_stats`, `mdl`, `status`) are answered
//!   from the latest immutable [`Snapshot`] — concurrently with, and
//!   unblocked by, refinement;
//! * a **background refinement driver** warm-starts from the current
//!   partition and re-sweeps only the dirty region a batch touched
//!   ([`hsbp_core::refine_partition`]), under a [`hsbp_core::RunBudget`],
//!   cooperatively cancelled the moment a newer batch lands;
//! * with a **state directory** ([`ServeConfig::state_dir`]) every accepted
//!   batch is WAL-logged before its acknowledgement ([`wal`]), snapshots
//!   are persisted on a cadence and at clean shutdown ([`recover`]), and a
//!   restarted daemon warm-starts from the snapshot plus the WAL tail;
//! * **back-pressure** bounds the mutation backlog ([`ServeConfig::max_pending`])
//!   with a typed `busy` protocol error, and the serve durability path can
//!   be crash-tested deterministically via a [`faults::ServeFaultPlan`].
//!
//! ```no_run
//! use hsbp_serve::{Server, ServeConfig};
//! use hsbp_graph::Graph;
//!
//! let handle = Server::spawn(ServeConfig::default(), Graph::from_edges(0, &[]))?;
//! println!("listening on {}", handle.local_addr());
//! handle.join();
//! # Ok::<(), hsbp_core::HsbpError>(())
//! ```

// Serving path: no stray unwraps — every socket and lock failure must map
// to a typed error or a degraded-but-alive behaviour.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod faults;
pub use hsbp_collections::json;
pub mod mutlog;
pub mod protocol;
pub mod recover;
pub mod server;
pub mod state;
pub mod wal;

pub use faults::ServeFaultPlan;
pub use mutlog::{AppendError, MutationLog};
pub use protocol::{ErrorKind, Request, BENCH_SERVE_SCHEMA_VERSION, PROTOCOL_VERSION};
pub use recover::{PersistedSnapshot, Recovery, StateDir};
pub use server::{ServeConfig, Server, ServerHandle, MAX_LINE_BYTES};
pub use state::{BlockStats, EvolvingGraph, Mutation, Snapshot, StateHandle};
pub use wal::FsyncPolicy;
