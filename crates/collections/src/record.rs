//! The one length-prefixed, checksummed record frame, shared by the serve
//! mutation WAL and the shard sync channel:
//!
//! ```text
//! [u32 payload_len][u64 seq][u64 fnv1a(payload)][payload]      little-endian
//! ```
//!
//! [`frame`] encodes a record and [`read_frame`] decodes the one at the
//! front of a byte slice, borrowing its payload. The payload layouts belong
//! to the callers, which decode them with [`ByteReader`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::fnv;

/// Bytes of the record header: `[u32 len][u64 seq][u64 checksum]`.
pub const HEADER_LEN: usize = 4 + 8 + 8;

/// Why the bytes at the front of a slice are not an intact record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header, or fewer than the header promises.
    Truncated,
    /// The FNV-1a checksum does not match the payload.
    BadChecksum,
}

/// Frame `payload` as record `seq`.
pub fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&fnv::hash(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decode the record at the front of `bytes` into `(seq, payload,
/// consumed)`, where `consumed` is the record's length in bytes. Anything
/// after the record is left to the caller.
pub fn read_frame(bytes: &[u8]) -> Result<(u64, &[u8], usize), FrameError> {
    let mut header = ByteReader::new(bytes);
    let (Some(len), Some(seq), Some(sum)) = (header.u32(), header.u64(), header.u64()) else {
        return Err(FrameError::Truncated);
    };
    let end = HEADER_LEN.saturating_add(len as usize);
    let payload = bytes.get(HEADER_LEN..end).ok_or(FrameError::Truncated)?;
    if fnv::hash(payload) != sum {
        return Err(FrameError::BadChecksum);
    }
    Ok((seq, payload, end))
}

/// The sequence number in a record header, without checking the payload
/// (`None` when the header itself is cut short).
pub fn header_seq(bytes: &[u8]) -> Option<u64> {
    let mut header = ByteReader::new(bytes);
    header.u32()?;
    header.u64()
}

/// Little-endian cursor over a byte slice. Every read returns `None`,
/// without advancing, when too few bytes remain.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let end = self.pos.checked_add(N)?;
        let out = self.bytes.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// True once every byte has been read.
    pub fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}
