//! Fast, dependency-light container and sampling primitives used across
//! hsbp, plus the one wire and persistence substrate every crate shares.
//!
//! The blockmodel inner loops are dominated by hash-map lookups keyed by small
//! integers (block ids) and by weighted discrete sampling (choosing a
//! neighbour edge or a block proportionally to edge counts). This crate
//! provides:
//!
//! * [`hash`] — an Fx-style hasher (the algorithm used by rustc) plus
//!   `FxHashMap`/`FxHashSet` aliases, much faster than SipHash for integer
//!   keys,
//! * [`sample`] — O(1) alias-table sampling, cumulative (binary-search)
//!   sampling and a tiny splitmix-based counter RNG used for deterministic
//!   per-vertex randomness in parallel sweeps,
//! * [`fastmath`] — the shared `ln`/`x·ln x` helpers and the precomputed
//!   `ln` table behind the delta-MDL kernel,
//! * [`sparse`] — the sparse row/column vectors backing the blockmodel
//!   matrix `B` (sorted-vector representation: canonical and deterministic),
//! * [`scratch`] — epoch-stamped reusable counters so the per-proposal hot
//!   path performs zero heap allocations in steady state.
//!
//! The wire and persistence primitives are dependency-free and each exists
//! once in the workspace:
//!
//! * [`fnv`] — FNV-1a, the checksum and fingerprint hash,
//! * [`record`] — the `[u32 len][u64 seq][u64 fnv1a][payload]` record frame
//!   of the serve WAL and the shard sync channel, plus a little-endian
//!   [`record::ByteReader`],
//! * [`json`] — the JSON codec of the serve protocol and the bench reports,
//! * [`directive`] — the `VERB:ARG,...` tokenizer behind every fault plan.

pub mod directive;
pub mod fastmath;
pub mod fnv;
pub mod hash;
pub mod json;
pub mod record;
pub mod sample;
pub mod scratch;
pub mod sparse;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use sample::{AliasTable, CumulativeSampler, SplitMix64};
pub use scratch::ScratchCounter;
pub use sparse::SparseRow;
