//! The process's own resource use and the machine fingerprint.

use std::hint::black_box;
use std::time::Instant;

use crate::trace::median;
use crate::workload::split_mix64;

/// Clock ticks per second of `/proc/self/stat` times (Linux `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads, including
/// threads that have exited.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fixed reference kernel (hash 2^20 integers, then sort them), ms,
/// median of five: records from different machines scale by it.
pub fn reference_kernel_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut v: Vec<u64> = (0..1u64 << 20).map(split_mix64).collect();
            v.sort_unstable();
            black_box(v);
            t.elapsed().as_nanos() as f64 * 1e-6
        })
        .collect();
    median(&samples)
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), "cbf29ce484222325");
        assert_eq!(fnv64(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds().is_some_and(|c| c >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
