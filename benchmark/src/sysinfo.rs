//! What the harness reads about its own process and host from `/proc`.

use crate::json;
use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// The three C library calls the harness needs that `std` has no wrapper
/// for; `std` links the C library on Linux already. The layouts are those of
/// 64-bit Linux, the only platform with the `/proc` files read below.
mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    /// A `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    }
}

/// User + system CPU seconds of this process, all threads, at nanosecond
/// resolution (`/proc/self/stat` counts the same time in 10 ms ticks, too
/// coarse for a one-second window).
pub fn cpu_seconds() -> f64 {
    let mut time = ffi::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    time.sec as f64 + time.nsec as f64 / 1e9
}

/// Restricts the calling thread, and every thread spawned after it, to the
/// highest-numbered CPU it may run on; returns that CPU, or `None` where
/// the kernel refuses.
///
/// Why one CPU: the two virtual CPUs of the box this was written on share
/// one core's worth of capacity (two busy processes each run 40% slower, in
/// stretches of seconds, than one alone), and a wake-up across them costs
/// more than the work it hands over. Spread over both, identical runs
/// differed by 25%; on one, by 5%, at twice the throughput.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: ffi::CpuSet = [0; 16];
    let size = std::mem::size_of::<ffi::CpuSet>();
    // SAFETY: `set` is a valid, writable buffer of `size` bytes.
    if unsafe { ffi::sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let word = set.iter().rposition(|w| *w != 0)?;
    let bit = 63 - set[word].leading_zeros() as usize;
    set = [0; 16];
    set[word] = 1 << bit;
    // SAFETY: `set` is a valid buffer of `size` bytes, only read.
    (unsafe { ffi::sched_setaffinity(0, size, &set) } == 0).then_some(64 * word + bit)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of the process.
pub fn threads() -> u64 {
    status_field(&read("/proc/self/status"), "Threads").unwrap_or(0)
}

/// Voluntary + involuntary context switches summed over the live threads
/// (`/proc/self/status` alone covers only the main thread, which sleeps).
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let status = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
            status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// File-system type holding `dir`: the longest mount point that prefixes it.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// `rustc --version`, or "unknown".
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git` there
/// and nowhere above it (`git rev-parse` would walk out of the checkout), or
/// "unknown" where there is no repository.
fn git_rev() -> String {
    let head = read(".git/HEAD");
    let rev = match head.trim().strip_prefix("ref: ") {
        None => head.trim().to_string(),
        Some(reference) => {
            let loose = read(&format!(".git/{reference}"));
            let packed = read(".git/packed-refs");
            let packed = packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()));
            Some(loose.trim().to_string())
                .filter(|rev| !rev.is_empty())
                .or(packed)
                .unwrap_or_default()
        }
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

/// The environment block recorded with every result file.
pub fn env_json(data_dir: &Path, nproc: usize, pinned_cpu: Option<usize>) -> String {
    json::object([
        ("nproc", nproc.to_string()),
        (
            "pinned_cpu",
            pinned_cpu.map_or("null".into(), |cpu| cpu.to_string()),
        ),
        (
            "kernel",
            json::string(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("rustc", json::string(&rustc_version())),
        ("git_rev", json::string(&git_rev())),
        ("data_dir_fs", json::string(&fs_type(data_dir))),
        ("loadavg_1m_at_start", json::number(loadavg())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(status, "VmHWM"), Some(20480));
        assert_eq!(status_field(status, "Threads"), Some(7));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(threads() >= 1 && peak_rss_mb() > 0.0);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
