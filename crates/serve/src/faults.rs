//! Deterministic fault injection for the serve durability path — the PR 2
//! shard fault-plan idea extended to the daemon, so crash recovery is
//! tested by plan, not by luck.
//!
//! Grammar (comma-separated actions, each at most once, tokenized by the
//! shared [`hsbp_collections::directive`] grammar):
//!
//! ```text
//! crash-after-wal:SEQ        crash right after the WAL append for batch SEQ
//!                            (the record is durable, the client never got
//!                            the ack — recovery must replay it)
//! torn-write:SEQ             write only a prefix of batch SEQ's WAL record,
//!                            then crash (recovery must drop the tear whole)
//! crash-before-rename:NTH    crash after the NTH snapshot file (1-based) is
//!                            fully written but before the atomic rename
//!                            (the previous snapshot must survive)
//! slow-apply:SEQ=MS          sleep MS milliseconds in the refinement driver
//!                            before applying the round containing batch SEQ
//!                            (back-pressure window for `busy` tests)
//! ```
//!
//! "Crash" is configurable: the CLI daemon dies hard (`process::abort`,
//! what the CI crash-recovery job exercises), while in-process tests use a
//! soft crash — the daemon stops acknowledging and shuts down *without*
//! the clean-shutdown snapshot, exactly the state a hard kill leaves on
//! disk.

use hsbp_collections::directive;
use std::fmt;

/// One parsed serve fault plan. The empty plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    /// Crash immediately after the WAL append for this batch sequence.
    pub crash_after_wal: Option<u64>,
    /// Write a torn WAL record for this batch sequence, then crash.
    pub torn_write: Option<u64>,
    /// Crash before the atomic rename of the Nth (1-based) snapshot save.
    pub crash_before_rename: Option<u64>,
    /// `(seq, millis)`: delay the driver before applying this sequence.
    pub slow_apply: Option<(u64, u64)>,
}

impl ServeFaultPlan {
    /// The plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Parse the `--fault-plan` grammar (module docs). Duplicate actions
    /// and malformed numbers are rejected.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for d in directive::parse(spec, "`action:value`")? {
            let part = d.text;
            let parse_u64 = |text: &str, what: &str| -> Result<u64, String> {
                text.trim()
                    .parse()
                    .map_err(|_| format!("`{part}`: {what} must be a non-negative integer"))
            };
            match d.verb {
                "crash-after-wal" => {
                    if plan.crash_after_wal.is_some() {
                        return Err(format!("`{part}`: duplicate crash-after-wal"));
                    }
                    plan.crash_after_wal = Some(parse_u64(d.arg, "SEQ")?);
                }
                "torn-write" => {
                    if plan.torn_write.is_some() {
                        return Err(format!("`{part}`: duplicate torn-write"));
                    }
                    plan.torn_write = Some(parse_u64(d.arg, "SEQ")?);
                }
                "crash-before-rename" => {
                    if plan.crash_before_rename.is_some() {
                        return Err(format!("`{part}`: duplicate crash-before-rename"));
                    }
                    let nth = parse_u64(d.arg, "NTH")?;
                    if nth == 0 {
                        return Err(format!("`{part}`: NTH is 1-based"));
                    }
                    plan.crash_before_rename = Some(nth);
                }
                "slow-apply" => {
                    if plan.slow_apply.is_some() {
                        return Err(format!("`{part}`: duplicate slow-apply"));
                    }
                    let (seq, ms) = d
                        .arg
                        .split_once('=')
                        .ok_or_else(|| format!("`{part}`: expected slow-apply:SEQ=MS"))?;
                    plan.slow_apply = Some((parse_u64(seq, "SEQ")?, parse_u64(ms, "MS")?));
                }
                other => return Err(format!("unknown fault action `{other}`")),
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for ServeFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            Ok(())
        };
        if let Some(seq) = self.crash_after_wal {
            sep(f)?;
            write!(f, "crash-after-wal:{seq}")?;
        }
        if let Some(seq) = self.torn_write {
            sep(f)?;
            write!(f, "torn-write:{seq}")?;
        }
        if let Some(nth) = self.crash_before_rename {
            sep(f)?;
            write!(f, "crash-before-rename:{nth}")?;
        }
        if let Some((seq, ms)) = self.slow_apply {
            sep(f)?;
            write!(f, "slow-apply:{seq}={ms}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_action_and_roundtrips() {
        let spec = "crash-after-wal:3,torn-write:5,crash-before-rename:2,slow-apply:1=250";
        let plan = ServeFaultPlan::parse(spec).unwrap();
        assert_eq!(plan.crash_after_wal, Some(3));
        assert_eq!(plan.torn_write, Some(5));
        assert_eq!(plan.crash_before_rename, Some(2));
        assert_eq!(plan.slow_apply, Some((1, 250)));
        assert_eq!(plan.to_string(), spec, "Display round-trips the grammar");
        assert_eq!(ServeFaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(ServeFaultPlan::parse("").unwrap().is_empty());
        assert!(ServeFaultPlan::none().is_empty());
        assert_eq!(ServeFaultPlan::none().to_string(), "");
        assert!(!ServeFaultPlan::parse("slow-apply:2=10").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "crash-after-wal",
            "crash-after-wal:x",
            "torn-write:",
            "crash-before-rename:0",
            "slow-apply:3",
            "slow-apply:3=fast",
            "explode:1",
            "crash-after-wal:1,crash-after-wal:2",
        ] {
            assert!(ServeFaultPlan::parse(bad).is_err(), "`{bad}` should fail");
        }
    }
}
