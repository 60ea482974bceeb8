//! The delta-MDL term kernel.
//!
//! The per-proposal delta evaluation spends most of its time in
//! `b·ln(b/(d_out·d_in))` terms over sparse B-matrix cells whose arguments
//! are small integer counts. [`ll_term`] serves each `ln` from the
//! precomputed table in [`hsbp_collections::fastmath`] and keeps the
//! association of the libm reference [`crate::mdl::log_likelihood_term`].
//! Table entries are computed with the same `f64::ln`, and non-integer or
//! above-cap arguments fall back to libm, so the kernel is bit-identical to
//! the reference: the table changes the *cost* of a term, not its value.

use hsbp_collections::fastmath::ln_lookup;
// The table itself lives in the bottom crate; re-exported so the bench and
// the CLI reach it through blockmodel.
pub use hsbp_collections::fastmath::{table, LnTable, TABLE_CAP};

/// `b·ln(b / (d_out·d_in))` with the zero-cell convention (zero for
/// `b <= 0`), each `ln` served from the table.
#[inline]
pub fn ll_term(b: f64, d_out: f64, d_in: f64) -> f64 {
    if b <= 0.0 {
        0.0
    } else {
        debug_assert!(
            d_out > 0.0 && d_in > 0.0,
            "non-empty cell with zero block degree"
        );
        // Same association as the reference: b * (ln b - ln d_out - ln d_in).
        b * (ln_lookup(b) - ln_lookup(d_out) - ln_lookup(d_in))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdl::log_likelihood_term;

    #[test]
    fn ll_term_matches_libm_reference_on_integer_counts() {
        // Counts and degrees a blockmodel produces: zero, small, and past
        // the table cap (where the kernel falls back to libm).
        let cap = TABLE_CAP as u64;
        let counts = [
            0_u64,
            1,
            2,
            3,
            17,
            255,
            4096,
            cap - 1,
            cap,
            cap + 9,
            1 << 24,
        ];
        for b in counts {
            for d_out in counts.iter().map(|&d| d.max(b).max(1)) {
                for d_in in counts.iter().map(|&d| d.max(b).max(1)) {
                    let (bf, of, inf) = (b as f64, d_out as f64, d_in as f64);
                    assert_eq!(
                        ll_term(bf, of, inf).to_bits(),
                        log_likelihood_term(bf, of, inf).to_bits(),
                        "ll_term diverged at ({b}, {d_out}, {d_in})"
                    );
                }
            }
        }
    }

    #[test]
    fn ll_term_fractional_args_match_libm_reference() {
        for &(b, o, i) in &[(2.5, 7.0, 9.0), (3.0, 6.5, 2.0), (1e9, 2e9, 3e9)] {
            assert_eq!(
                ll_term(b, o, i).to_bits(),
                log_likelihood_term(b, o, i).to_bits()
            );
        }
    }
}
