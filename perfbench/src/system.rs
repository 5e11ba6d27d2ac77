//! Facts about the machine and the build that every result records.

use sea_core::SeaOptions;

/// Threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads the workloads use: at most two, so the workload stays the
/// same on machines with more cores.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Peak resident set size of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which the first is `ru_maxrss` (KiB).
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        ru_maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out like the C
    // `struct rusage` on 64-bit Linux, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.ru_maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Peak resident set size is only read on 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

/// The commit under test: `HEAD` of a `.git` directory in the working
/// directory, else `"unknown"`.
pub fn commit() -> String {
    if !std::path::Path::new(".git").is_dir() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The solver defaults the workloads leave untouched, resolved on this
/// machine: `(kernel, simd level, precision)`.
pub fn resolved_defaults() -> (String, String, String) {
    let d = SeaOptions::default();
    let simd = match d.simd.resolve() {
        Ok(level) => format!("{}:{}", d.simd.name(), level.name()),
        Err(e) => format!("{}:unavailable ({e})", d.simd.name()),
    };
    (
        d.kernel.name().to_string(),
        simd,
        d.precision.name().to_string(),
    )
}
