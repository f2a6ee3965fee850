//! What the host says about this process: memory, paging and waiting
//! for a CPU. Linux only; each reader returns 0 when its file is missing.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

fn status_kb(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in kB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set (`VmRSS`) in kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Nanoseconds this thread has waited on a run queue.
pub fn runqueue_wait_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Minor page faults of this process so far (field 10 of `stat`).
pub fn minor_faults() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; fields restart after ')'.
            let rest = &s[s.rfind(')')? + 2..];
            rest.split_whitespace().nth(7).and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// A fixed host-speed probe: a scan over 64 KiB of random bytes that
/// folds each into a running value, through a data-dependent branch.
/// Other tenants of the host's cores slow it down together with the
/// program's own code (see README: Noise); it runs none of the
/// program's code, so a change to the program moves the program's time
/// and not the probe's.
pub struct SpeedProbe {
    bytes: Vec<u8>,
}

const PROBE_BYTES: usize = 64 << 10;
const PROBE_STEPS: usize = 100_000;
const PROBE_BURSTS: usize = 3;

impl SpeedProbe {
    pub fn new() -> Self {
        let mut x: u64 = 7;
        let bytes = (0..PROBE_BYTES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 1) as u8
            })
            .collect();
        SpeedProbe { bytes }
    }

    /// Nanoseconds per step: the fastest of a few short bursts, so that
    /// an interrupt inside one burst does not count.
    pub fn ns_per_step(&self) -> f64 {
        (0..PROBE_BURSTS)
            .map(|_| {
                let t0 = Instant::now();
                let mut c = 0u64;
                for i in 0..PROBE_STEPS {
                    if self.bytes[i % PROBE_BYTES] != 0 {
                        c += 3
                    } else {
                        c ^= 5
                    }
                }
                black_box(c);
                t0.elapsed().as_nanos() as f64 / PROBE_STEPS as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}
