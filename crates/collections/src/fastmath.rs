//! Shared logarithm helpers and the precomputed `ln` table behind the
//! delta-MDL kernel.
//!
//! Delta-MDL evaluation is a sum of `b·ln(b/(d_out·d_in))` terms whose
//! arguments are overwhelmingly *small integer counts* (sparse B-matrix
//! cells and block degrees). A table of `ln i` for `i` below a cap turns
//! each libm `ln` call in the hot loop into a load — and because every
//! table entry is computed with the very same `f64::ln`, a lookup for an
//! in-range integer argument is *bit-identical* to calling `ln` directly.
//! Non-integer or above-cap arguments fall back to libm, so the table never
//! changes a result, only its cost.
//!
//! The table holds [`TABLE_CAP`] entries and is built lazily on first use.
//!
//! This module is also the one audited home of the scattered entropy-term
//! math: [`ln`], [`xlnx`] and [`xlny`] are the exact (libm) forms that
//! metrics/generator/graph call instead of open-coding `.ln()`.

use std::sync::OnceLock;

/// Number of integer entries in the process-wide table, i.e. the exclusive
/// cap on table-served arguments: 2^16 entries × 8 bytes = 512 KiB, of
/// which only the small-count prefix is hot.
pub const TABLE_CAP: usize = 1 << 16;

/// Exact natural logarithm. Passthrough to `f64::ln`, kept so every
/// entropy-term call site routes through one audited module.
#[inline]
pub fn ln(x: f64) -> f64 {
    x.ln()
}

/// Exact `x·ln x` with the entropy convention `0·ln 0 = 0`.
#[inline]
pub fn xlnx(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.ln()
    }
}

/// Exact `x·ln y` (the cross-entropy shape, e.g. `a·ln p` terms).
#[inline]
pub fn xlny(x: f64, y: f64) -> f64 {
    x * y.ln()
}

/// Precomputed `ln i` for `0 <= i < cap`; `ln[0]` is `-inf`, matching
/// `(0.0).ln()`.
#[derive(Debug)]
pub struct LnTable {
    ln: Box<[f64]>,
}

impl LnTable {
    /// Build a table with `cap` integer entries.
    pub fn new(cap: usize) -> Self {
        Self {
            ln: (0..cap).map(|i| (i as f64).ln()).collect(),
        }
    }

    /// Number of integer entries (exclusive cap on table-served arguments).
    pub fn cap(&self) -> usize {
        self.ln.len()
    }

    /// `ln x` — table load when `x` is an integer below the cap,
    /// `f64::ln` otherwise. Bit-identical to `x.ln()` in both cases.
    #[inline]
    pub fn ln(&self, x: f64) -> f64 {
        let i = x as usize;
        if i < self.ln.len() && i as f64 == x {
            self.ln[i]
        } else {
            x.ln()
        }
    }
}

static TABLE: OnceLock<LnTable> = OnceLock::new();

/// The process-wide table of [`TABLE_CAP`] entries, built on first use.
pub fn table() -> &'static LnTable {
    TABLE.get_or_init(|| LnTable::new(TABLE_CAP))
}

/// Table-served `ln x` (see [`LnTable::ln`]).
#[inline]
pub fn ln_lookup(x: f64) -> f64 {
    table().ln(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_libm_bitwise_on_integer_counts() {
        let t = LnTable::new(1 << 10);
        // Every table-served count from 0, then counts past the cap that
        // must fall back to libm.
        let cap = t.cap();
        for i in (0..cap).chain([cap, cap + 17, 1 << 20, 50_000_000]) {
            let x = i as f64;
            assert_eq!(t.ln(x).to_bits(), x.ln().to_bits(), "ln diverges at {i}");
        }
        assert_eq!(t.ln(0.0), f64::NEG_INFINITY);
        assert_eq!(table().cap(), TABLE_CAP);
    }

    #[test]
    fn non_integer_arguments_fall_back_to_libm() {
        let t = LnTable::new(1 << 10);
        for &x in &[0.5, 1.75, std::f64::consts::PI, 1e7 + 0.5, 1e300] {
            assert_eq!(t.ln(x).to_bits(), x.ln().to_bits());
        }
    }

    #[test]
    fn xlnx_follows_the_entropy_convention() {
        assert_eq!(xlnx(0.0), 0.0);
        assert_eq!(xlnx(-3.0), 0.0);
        assert_eq!(xlnx(4.0).to_bits(), (4.0 * 4f64.ln()).to_bits());
    }
}
