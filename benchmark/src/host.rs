//! Host measurements read from `/proc/self`: CPU time, peak RSS and the
//! CPUs this process may run on.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat`'s `utime`/`stime`
/// (`USER_HZ`, fixed at 100 on every Linux ABI the benchmark runs on).
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds consumed so far by this process, all its
/// threads included (exited ones too). `(0, 0)` when `/proc` is missing.
pub fn cpu_times() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return (0.0, 0.0) };
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 14 (utime) and 15 (stime); `rest` starts at field 3.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

fn status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix(key)).map(|v| v.trim().to_owned())
}

/// Peak resident set size (`VmHWM`) in MiB; zero when unavailable.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    status_field("Cpus_allowed_list:").map(|l| parse_cpu_list(&l)).unwrap_or_default()
}

/// Parses a kernel CPU list such as `0-3,6`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    cpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list("0,2-4\n"), vec![0, 2, 3, 4]);
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(!allowed_cpus().is_empty());
        let (user, sys) = cpu_times();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
