//! The run manifest: what ran, where, on which code. Printed as one JSON
//! line before the result line.

use crate::inputs::Fnv;
use crate::span::Clock;
use crate::workloads::Args;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Environment variables that silently change `SbpConfig::default()`.
/// Every run must measure the default configuration, so the benchmark
/// refuses to run while any is set.
pub const FORBIDDEN_ENV: [&str; 3] = ["HSBP_THREADS", "HSBP_MATH", "HSBP_MATH_CAP"];

/// The first forbidden variable that is set, if any.
pub fn forbidden_env() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|name| std::env::var_os(name).is_some())
}

/// Output of a short command, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".into())
}

/// Fingerprint of the source the benchmark built against: every file
/// under `crates/` plus the root manifest and lock file, in sorted path
/// order. Identifies the code under test where no git metadata exists.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        h.bytes(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.bytes(&bytes);
    }
    format!("{:016x}", h.finish())
}

/// The manifest as one JSON line.
pub fn json_line(args: &Args, clock: &Clock) -> String {
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"manifest\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git\": \"{}\", \"source_fnv\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \
         \"clock_read_ns\": {:.2}, \"empty_span_ns\": {:.2}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        command_line("git", &["rev-parse", "HEAD"]),
        source_fingerprint(&root),
        command_line("rustc", &["--version"]).replace('"', "'"),
        clock.read_ns,
        clock.empty_span_ns,
    )
}
