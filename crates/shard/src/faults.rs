//! Deterministic fault injection for the shard supervisor.
//!
//! A [`FaultPlan`] maps `(shard, attempt)` pairs to injected faults, so
//! every failure path of the supervision layer — panic, straggler, corrupt
//! result — is reproducible in tests and from the CLI. Plans are pure data:
//! the same plan against the same `(graph, config)` produces the same run,
//! bit for bit.
//!
//! The CLI grammar (`--fault-plan`) is a comma-separated list of directives
//! (tokenized by the shared [`hsbp_collections::directive`] grammar):
//!
//! ```text
//! panic:SHARD@ATTEMPT      panic on that attempt (1-based)
//! panic:SHARD@*            panic on every attempt (permanent failure)
//! delay:SHARD@ATTEMPT=SECS inflate the attempt's cost by SECS (straggler)
//! delay:SHARD@*=SECS       straggle on every attempt
//! corrupt:SHARD@ATTEMPT    return a corrupted membership vector
//! corrupt:SHARD@*          corrupt every attempt
//! ```
//!
//! e.g. `panic:0@1,panic:3@1` fails shards 0 and 3 on their first attempt
//! only (both recover via retry), while `panic:2@*` kills shard 2 for good.

use hsbp_collections::directive;
use hsbp_core::SbpResult;

/// What a single injected fault does to one shard attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The attempt panics mid-run.
    Panic,
    /// The attempt completes but its cost account is inflated by this many
    /// simulated seconds — a straggler for the deadline check.
    Delay(f64),
    /// The attempt returns a corrupted result (an out-of-range block id),
    /// caught by the post-shard invariant validator.
    Corrupt,
}

/// Which attempts of a shard a directive applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptSelector {
    /// One specific attempt (1-based).
    On(usize),
    /// Every attempt — a permanent fault.
    Every,
}

impl AttemptSelector {
    fn matches(&self, attempt: usize) -> bool {
        match self {
            AttemptSelector::On(a) => *a == attempt,
            AttemptSelector::Every => true,
        }
    }
}

/// One fault directive: a kind applied to selected attempts of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Target shard index.
    pub shard: usize,
    /// Which attempts fail.
    pub attempts: AttemptSelector,
    /// How they fail.
    pub kind: FaultKind,
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: no faults injected.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled directives.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Add a directive (builder style).
    pub fn with(mut self, shard: usize, attempts: AttemptSelector, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec {
            shard,
            attempts,
            kind,
        });
        self
    }

    /// Panic on one specific attempt of `shard`.
    pub fn panic_on(self, shard: usize, attempt: usize) -> Self {
        self.with(shard, AttemptSelector::On(attempt), FaultKind::Panic)
    }

    /// Panic on every attempt of `shard` — a permanently lost rank.
    pub fn kill(self, shard: usize) -> Self {
        self.with(shard, AttemptSelector::Every, FaultKind::Panic)
    }

    /// Inflate the cost of one attempt of `shard` by `secs`.
    pub fn delay_on(self, shard: usize, attempt: usize, secs: f64) -> Self {
        self.with(shard, AttemptSelector::On(attempt), FaultKind::Delay(secs))
    }

    /// Corrupt the result of one specific attempt of `shard`.
    pub fn corrupt_on(self, shard: usize, attempt: usize) -> Self {
        self.with(shard, AttemptSelector::On(attempt), FaultKind::Corrupt)
    }

    /// The fault injected into `(shard, attempt)`, if any. The first
    /// matching directive wins, so explicit per-attempt directives should be
    /// listed before blanket `@*` ones when both target a shard.
    pub fn fault_for(&self, shard: usize, attempt: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.shard == shard && f.attempts.matches(attempt))
            .map(|f| f.kind)
    }

    /// Parse the CLI grammar (see module docs). Whitespace around
    /// directives and around their `:` is ignored; an empty string is the
    /// empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for d in directive::parse(spec, "KIND:SHARD@ATTEMPT")? {
            let directive = d.text;
            let (shard, attempt_text) = d.shard_at("ATTEMPT")?;
            // delay carries `=SECS` after the attempt selector.
            let (attempt_text, delay_secs) = match attempt_text.split_once('=') {
                Some((a, secs)) => {
                    let secs: f64 = secs
                        .parse()
                        .map_err(|e| format!("`{directive}`: bad delay seconds `{secs}`: {e}"))?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(format!(
                            "`{directive}`: delay seconds must be finite and non-negative"
                        ));
                    }
                    (a, Some(secs))
                }
                None => (attempt_text, None),
            };
            let attempts = if attempt_text == "*" {
                AttemptSelector::Every
            } else {
                let a: usize = attempt_text
                    .parse()
                    .map_err(|e| format!("`{directive}`: bad attempt `{attempt_text}`: {e}"))?;
                if a == 0 {
                    return Err(format!("`{directive}`: attempts are 1-based"));
                }
                AttemptSelector::On(a)
            };
            let kind = match (d.verb, delay_secs) {
                ("panic", None) => FaultKind::Panic,
                ("corrupt", None) => FaultKind::Corrupt,
                ("delay", Some(secs)) => FaultKind::Delay(secs),
                ("delay", None) => {
                    return Err(format!("`{directive}`: delay needs `=SECS`"));
                }
                ("panic" | "corrupt", Some(_)) => {
                    return Err(format!("`{directive}`: only delay takes `=SECS`"));
                }
                (other, _) => {
                    return Err(format!(
                        "`{directive}`: unknown fault kind `{other}` (panic|delay|corrupt)"
                    ));
                }
            };
            plan.faults.push(FaultSpec {
                shard,
                attempts,
                kind,
            });
        }
        Ok(plan)
    }

    /// Shards this plan fails on *every* attempt with a panic or corruption
    /// (stragglers can still pass if no deadline is configured).
    pub fn permanently_failed_shards(&self) -> Vec<usize> {
        let mut shards: Vec<usize> = self
            .faults
            .iter()
            .filter(|f| {
                f.attempts == AttemptSelector::Every
                    && matches!(f.kind, FaultKind::Panic | FaultKind::Corrupt)
            })
            .map(|f| f.shard)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, spec) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            let kind = match spec.kind {
                FaultKind::Panic => "panic",
                FaultKind::Delay(_) => "delay",
                FaultKind::Corrupt => "corrupt",
            };
            write!(f, "{kind}:{}", spec.shard)?;
            match spec.attempts {
                AttemptSelector::On(a) => write!(f, "@{a}")?,
                AttemptSelector::Every => write!(f, "@*")?,
            }
            if let FaultKind::Delay(secs) = spec.kind {
                write!(f, "={secs}")?;
            }
        }
        Ok(())
    }
}

/// Deterministically corrupt a shard result in place: plant one
/// out-of-range block id at a seed-derived vertex (and inflate the block
/// count on empty shards so even those trip the validator).
pub fn corrupt_result(result: &mut SbpResult, seed: u64) {
    if result.assignment.is_empty() {
        result.num_blocks += 1;
        return;
    }
    let idx = (seed % result.assignment.len() as u64) as usize;
    result.assignment[idx] = result.num_blocks as u32 + 1;
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let plan = FaultPlan::parse("panic:0@1, panic:3@*,delay:1@2=5.5,corrupt:2@1").unwrap();
        assert_eq!(plan.specs().len(), 4);
        assert_eq!(plan.fault_for(0, 1), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for(0, 2), None);
        assert_eq!(plan.fault_for(3, 7), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for(1, 2), Some(FaultKind::Delay(5.5)));
        assert_eq!(plan.fault_for(2, 1), Some(FaultKind::Corrupt));
        assert_eq!(plan.fault_for(2, 2), None);
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "panic",
            "panic:x@1",
            "panic:0@0",
            "panic:0@q",
            "delay:0@1",
            "delay:0@1=NaN",
            "delay:0@1=-2",
            "corrupt:0@1=3",
            "frob:0@1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn permanent_failures_listed() {
        let plan =
            FaultPlan::parse("panic:1@*,panic:1@*,delay:2@*=9,corrupt:4@*,panic:0@1").unwrap();
        assert_eq!(plan.permanently_failed_shards(), vec![1, 4]);
    }
}
