//! The comma-separated `VERB:ARG` directive grammar shared by every fault
//! plan (`hsbp shard --fault-plan`, `--net-fault-plan`, `hsbp serve
//! --fault-plan`). This module only tokenizes; each plan keeps its own verb
//! table and argument rules.
//!
//! A spec splits on `,`; entries are trimmed and empty ones skipped, so
//! `""` and `" , "` are the empty plan. Each entry splits at its first `:`
//! into a verb and an argument, both trimmed.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// One `VERB:ARG` entry of a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Directive<'a> {
    /// The whole trimmed entry, for error messages.
    pub text: &'a str,
    /// Text before the first `:`, trimmed.
    pub verb: &'a str,
    /// Text after the first `:`, trimmed.
    pub arg: &'a str,
}

/// Tokenize `spec`. An entry without a `:` is an error naming `shape`, the
/// expected form (e.g. `KIND:ARG`).
pub fn parse<'a>(spec: &'a str, shape: &str) -> Result<Vec<Directive<'a>>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|text| !text.is_empty())
        .map(|text| {
            let (verb, arg) = text
                .split_once(':')
                .ok_or_else(|| format!("`{text}`: expected {shape}"))?;
            Ok(Directive {
                text,
                verb: verb.trim(),
                arg: arg.trim(),
            })
        })
        .collect()
}

impl<'a> Directive<'a> {
    /// Split a `SHARD@REST` argument into the shard index and the text
    /// after `@`; `rest` names that text in errors (e.g. `ROUND`).
    pub fn shard_at(&self, rest: &str) -> Result<(usize, &'a str), String> {
        let text = self.text;
        let (shard, tail) = self
            .arg
            .split_once('@')
            .ok_or_else(|| format!("`{text}`: expected SHARD@{rest}"))?;
        let shard = shard
            .parse()
            .map_err(|e| format!("`{text}`: bad shard `{shard}`: {e}"))?;
        Ok((shard, tail))
    }
}
