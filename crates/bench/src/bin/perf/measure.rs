//! Process-level measurements taken from outside the engine: CPU time,
//! peak resident memory, and the host fingerprint stored with results.
//! Linux only; everything is read from `/proc` or the C library.

use serde::{Deserialize, Serialize};
use std::os::raw::{c_int, c_long};
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User + system CPU seconds consumed by every thread of this process
/// so far, exited threads included. This is the `utime + stime` of
/// `/proc/self/stat`, read at nanosecond rather than clock-tick
/// resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `VmHWM` of this process in MiB: the peak resident set since start or
/// since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Where a set of results was measured.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Host {
    pub nproc: u64,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_head: Option<String>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Host {
    /// Fingerprints this machine. Missing pieces read as `unknown`; the
    /// git HEAD is `None` outside a git checkout.
    pub fn detect() -> Self {
        let unknown = || "unknown".to_owned();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, model)| model.trim().to_owned())
                })
                .unwrap_or_else(unknown),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|k| k.trim().to_owned())
                .unwrap_or_else(|_| unknown()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_head: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "{x}");
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
