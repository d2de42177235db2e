//! Process accounting from `/proc` and the host roofline probes.

use std::hint::black_box;
use std::time::Instant;

/// User+system CPU seconds of this process so far (all threads, including
/// ones that have exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in USER_HZ (100/s on Linux).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<u64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Single-thread f32 multiply-add rate in GFLOP/s: 32 independent
/// accumulator chains (vectorizable) kept in registers for 256 steps at a
/// time, best of three ~0.1 s trials.
pub fn fma_gflops() -> f64 {
    const LANES: usize = 32;
    const INNER: usize = 256;
    const OUTER: usize = 8_192;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut acc = [1.0f32; LANES];
        let (m, c) = (black_box(0.999_999f32), black_box(1e-6f32));
        let t = Instant::now();
        for _ in 0..OUTER {
            for _ in 0..INNER {
                for a in acc.iter_mut() {
                    *a = *a * m + c;
                }
            }
            acc = black_box(acc);
        }
        let s = t.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max((2 * LANES * INNER * OUTER) as f64 / s / 1e9);
    }
    best
}

/// STREAM-style triad `a = b + s*c` over three 16 MiB f32 arrays, in GB/s
/// of counted traffic (three arrays per pass), best of five passes.
pub fn triad_gbs() -> f64 {
    const N: usize = 4 << 20;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let s = black_box(0.5f32);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        let secs = t.elapsed().as_secs_f64();
        best = best.max((3 * 4 * N) as f64 / secs / 1e9);
    }
    best
}

/// The CPUs this process may run on, from `Cpus_allowed_list`, read once
/// (before [`pin_threads`] narrows the main thread's own list).
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(read_allowed_cpus)
}

fn read_allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restrict thread `tid` (0 = the caller) to `cpu`.
fn set_affinity(tid: i32, cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    if cpu >= 1024 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte cpu_set_t and its size
    // is passed alongside; the call only reads it and acts on our own thread.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Give the session dispatch threads (`tfno-dispatch`) one CPU and every
/// other thread of the process another, so the two threads of a run never
/// share a core and never trade places between runs. Returns the CPUs used,
/// or `None` when fewer than two are available or pinning is refused.
pub fn pin_threads() -> Option<(usize, usize)> {
    let cpus = allowed_cpus();
    let (host, dispatch) = (*cpus.first()?, *cpus.get(1)?);
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    for task in tasks.flatten() {
        let tid: i32 = task.file_name().to_string_lossy().parse().ok()?;
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let cpu = if comm.trim() == "tfno-dispatch" {
            dispatch
        } else {
            host
        };
        if !set_affinity(tid, cpu) {
            return None;
        }
    }
    Some((host, dispatch))
}
