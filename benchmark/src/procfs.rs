//! Process accounting read from `/proc/self`: CPU time and peak memory.

use std::fs;

/// CPU nanoseconds (user + system) consumed so far by every live thread
/// of this process: the sum of the first field of
/// `/proc/self/task/*/schedstat`. The kernel keeps that counter in
/// nanoseconds; `/proc/self/stat` only has 10 ms ticks.
pub fn process_cpu_ns() -> u64 {
    threads().iter().map(|t| t.cpu_ns).sum()
}

/// One thread of this process.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    /// The thread's name (`comm`).
    pub name: String,
    /// CPU nanoseconds (user + system) it has run.
    pub cpu_ns: u64,
    /// User-mode clock ticks, from `stat`.
    pub utime_ticks: u64,
    /// Kernel-mode clock ticks, from `stat`.
    pub stime_ticks: u64,
}

/// Every live thread of this process. Empty where `/proc` is missing.
pub fn threads() -> Vec<ThreadCpu> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let p = entry.path();
        // A thread can exit between the listing and the reads.
        let Ok(sched) = fs::read_to_string(p.join("schedstat")) else { continue };
        let Ok(stat) = fs::read_to_string(p.join("stat")) else { continue };
        let Ok(comm) = fs::read_to_string(p.join("comm")) else { continue };
        let cpu_ns = sched.split_whitespace().next().and_then(|f| f.parse().ok()).unwrap_or(0);
        // Fields after the parenthesised name: state is field 3, utime
        // 14, stime 15 (1-based, `man proc`).
        let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let f: Vec<&str> = after.split_whitespace().collect();
        let tick = |i: usize| f.get(i).and_then(|v| v.parse().ok()).unwrap_or(0);
        out.push(ThreadCpu {
            name: comm.trim().to_string(),
            cpu_ns,
            utime_ticks: tick(11),
            stime_ticks: tick(12),
        });
    }
    out
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// The CPUs this process may run on, from `Cpus_allowed_list` (for
/// example `1` or `0-1,3`). Empty where `/proc` is missing.
pub fn allowed_cpus() -> Vec<u32> {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<u32>(), hi.trim().parse::<u32>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Nanoseconds the hypervisor has so far kept the CPUs in `cpus` away
/// from this guest while they had work to do: the `steal` column of their
/// `/proc/stat` rows, in clock ticks of 10 ms. A virtual CPU that is idle
/// accrues none, so for a process pinned to `cpus` this is time it wanted
/// to run and could not.
pub fn steal_ns(cpus: &[u32]) -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut ticks = 0u64;
    for line in stat.lines() {
        let mut f = line.split_whitespace();
        let Some(id) =
            f.next().and_then(|n| n.strip_prefix("cpu")).and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        if cpus.contains(&id) {
            // user nice system idle iowait irq softirq steal
            ticks += f.nth(7).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        }
    }
    ticks * 10_000_000
}
