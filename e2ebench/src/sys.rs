//! Process resource usage (`getrusage(2)`), the online CPU count
//! (`sysconf(3)`), CPU affinity (`sched_setaffinity(2)`) and the
//! checkout's git commit, read without spawning processes or leaving the
//! checkout.

use std::os::raw::{c_int, c_long};
use std::path::Path;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two timevals followed by fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// `cpu_set_t`: a bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Default)]
struct CpuSet {
    bits: [u64; 16],
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the first CPU it may run on. Returns that CPU, or `None` when the
/// affinity calls fail (the thread then runs where it did).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = CpuSet::default();
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a writable cpu_set_t of `size` bytes and pid 0
    // names the calling thread; the call only writes into `allowed`.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| allowed.bits[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = CpuSet::default();
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable cpu_set_t of `size` bytes and pid 0
    // names the calling thread; the call only reads `one`.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

const RUSAGE_SELF: c_int = 0;
const SC_NPROCESSORS_ONLN: c_int = 84;

/// A reading of this process's resource counters.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds, summed over every thread so far.
    pub cpu_s: f64,
    /// Peak resident set size so far, in MB (10^6 bytes).
    pub peak_rss_mb: f64,
}

/// Read the counters of the calling process.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly sized, writable `struct rusage` and
    // RUSAGE_SELF is a valid `who`; the call only writes into `ru`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage {
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
        };
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        // Linux reports ru_maxrss in KiB.
        peak_rss_mb: ru.ru_maxrss as f64 * 1024.0 / 1e6,
    }
}

/// Online CPUs, as `nproc --all` would count them without affinity.
pub fn nproc() -> usize {
    // SAFETY: sysconf has no memory-safety preconditions.
    let n = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
    if n > 0 {
        n as usize
    } else {
        1
    }
}

/// CPUs this process may run on (cgroup and affinity limits applied).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The commit `root` is checked out at, read from `.git` directly, or
/// `"unknown"` when `root` is not a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
