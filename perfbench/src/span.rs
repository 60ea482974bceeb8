//! Timing primitives of the traced run: a calibrated clock and per-layer
//! span accumulators.
//!
//! A span is a pair of clock reads around one call (or around a batch of
//! calls too short to time one by one). An empty span — two reads with
//! nothing between — still measures the cost of one read, so every span
//! subtracts the empty-span cost measured at start-up.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Clock costs measured at start-up.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Cost of one `Instant::now()` call, ns.
    pub read_ns: f64,
    /// Duration an empty span measures, ns (subtracted from every span).
    pub empty_span_ns: f64,
}

impl Clock {
    /// Median over 31 batches of 4096 empty spans.
    pub fn calibrate() -> Self {
        const PAIRS: u32 = 4096;
        let mut spans = Vec::with_capacity(31);
        let mut reads = Vec::with_capacity(31);
        for _ in 0..31 {
            let batch = Instant::now();
            let mut inside = Duration::ZERO;
            for _ in 0..PAIRS {
                let a = Instant::now();
                let b = black_box(Instant::now());
                inside += b - a;
            }
            let total = batch.elapsed().as_nanos() as f64;
            spans.push(inside.as_nanos() as f64 / f64::from(PAIRS));
            reads.push(total / f64::from(2 * PAIRS));
        }
        Self {
            read_ns: crate::report::median(&reads),
            empty_span_ns: crate::report::median(&spans),
        }
    }

    /// A measured span's duration in ns with the empty-span cost removed.
    pub fn net_ns(&self, span: Duration) -> f64 {
        span.as_nanos() as f64 - self.empty_span_ns
    }
}

/// Time spent in one layer and the calls it covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: f64,
    pub calls: u64,
}

impl Acc {
    /// Add one span covering `calls` calls.
    pub fn add(&mut self, clock: &Clock, span: Duration, calls: u64) {
        self.ns += clock.net_ns(span);
        self.calls += calls;
    }

    /// Mean ns per call (0 when the layer was never called).
    pub fn per_call_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            (self.ns / self.calls as f64).max(0.0)
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// CPU seconds this process has used so far, over all its threads, live or
/// ended (`CLOCK_PROCESS_CPUTIME_ID`). Time the process waits for a core,
/// whether another process holds it or the host has stolen it from the
/// virtual machine, is not counted.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU seconds per thread of one fixed piece of work the benchmark
/// owns, run at once on `threads` threads (as many as the workload uses,
/// so it samples the same cores). See [`reference_work`].
pub fn reference_cpu_s(threads: usize) -> f64 {
    let t = Stamp::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(reference_work);
        }
        reference_work();
    });
    t.cpu_s() / threads as f64
}

/// The reference kernel: a hash table of counts (1 MiB, open addressing)
/// updated from a SplitMix64 stream, the natural log of each count, and a
/// sort of every 64 keys. It resembles the program's inner loops
/// (sparse-row lookups, ln of counts, random draws), so it slows down when
/// the host slows them down.
fn reference_work() {
    const SLOTS: usize = 1 << 17;
    const STEPS: u64 = 3_000_000;
    let mut keys = vec![0u32; SLOTS];
    let mut counts = vec![0u32; SLOTS];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut batch = Vec::with_capacity(64);
    let mut acc = 0.0f64;
    for _ in 0..STEPS {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let key = (z % 50_000) as u32 + 1;
        let mut slot = (key as usize).wrapping_mul(0x9e37_79b9) % SLOTS;
        while keys[slot] != 0 && keys[slot] != key {
            slot = (slot + 1) % SLOTS;
        }
        keys[slot] = key;
        counts[slot] += 1;
        acc += f64::from(counts[slot]).ln();
        batch.push(key);
        if batch.len() == 64 {
            batch.sort_unstable();
            acc += f64::from(batch[32]);
            batch.clear();
        }
    }
    black_box(acc);
}

/// A start point on the wall clock and the process CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// Wall seconds since the stamp.
    pub fn wall_s(&self) -> f64 {
        secs(self.wall)
    }

    /// Process CPU seconds since the stamp.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_clock_advances_with_work() {
        // Other test threads share the process clock, so only its lower
        // bound and monotonicity can be asserted here.
        let t = Stamp::now();
        let mut x = 0u64;
        while t.wall_s() < 0.05 {
            x = black_box(x.wrapping_add(1));
        }
        let busy = t.cpu_s();
        assert!(busy >= 0.01, "50 ms of spinning used {busy} CPU s");
        assert!(t.cpu_s() >= busy);
    }

    #[test]
    fn calibration_is_positive_and_subtracted() {
        let clock = Clock::calibrate();
        assert!(clock.read_ns > 0.0 && clock.empty_span_ns >= 0.0);
        let mut acc = Acc::default();
        acc.add(&clock, Duration::from_nanos(1_000), 4);
        assert!((acc.per_call_ns() - (1_000.0 - clock.empty_span_ns) / 4.0).abs() < 1e-9);
        assert_eq!(Acc::default().per_call_ns(), 0.0);
    }
}
