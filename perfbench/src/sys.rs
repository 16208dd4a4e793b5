//! Process resource usage and host facts.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // kernel's 64-bit layout, and `who` is one of the two constants
    // getrusage(2) accepts; the call writes only into `usage`.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_of(u: &Rusage) -> Duration {
    let us =
        |t: &Timeval| Duration::from_micros(u64::try_from(t.sec * 1_000_000 + t.usec).unwrap_or(0));
    us(&u.utime) + us(&u.stime)
}

/// User + system CPU time of this process plus every child it has
/// reaped (rank processes are waited for by the launcher).
#[must_use]
pub fn cpu_time() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set size of this process, in MB: the kernel's
/// high-water mark of this address space (`VmHWM`), which unlike
/// `ru_maxrss` does not carry over the parent's peak across `exec`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    kb / 1024.0
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The build profile this binary was compiled with.
#[must_use]
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
