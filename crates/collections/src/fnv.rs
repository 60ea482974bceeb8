//! FNV-1a (64-bit): the one checksum and fingerprint hash of the workspace.
//!
//! It checksums every WAL record and sync-protocol frame (see [`crate::record`]),
//! digests shard replicas, fingerprints the serve bench workload and keys a
//! shard checkpoint's `from-parts:` strategy tag. Each step xors a distinct
//! byte into the state and multiplies by an odd prime mod 2^64, both
//! bijections, so two inputs that differ in exactly one byte always hash
//! apart: a single-byte corruption is detected at a rate of 100%.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a state. [`Fnv1a::bytes`] is the standard byte-at-a-time
/// hash; [`Fnv1a::word`] folds a whole word in one step (the older
/// word-at-a-time form behind checkpoint `from-parts:` tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Fresh state at the offset basis.
    #[inline]
    pub const fn new() -> Self {
        Self(OFFSET)
    }

    /// Feed `bytes`, one FNV-1a step per byte.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Feed one whole word in a single xor-multiply step.
    #[inline]
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
        self
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over `bytes`.
#[inline]
pub fn hash(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}
