//! Process CPU time and peak memory from `/proc/self`.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux ABI this harness runs on; reading it properly needs
/// `sysconf`, i.e. a libc dependency this package does not have.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// ticks. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / TICKS_PER_S
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MB (the file's
/// "kB" are KiB; MB here is MiB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of this process so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3 0 100 200 300";
        assert_eq!(
            parse_stat_cpu_ticks(&format!("42 (bench) {tail}")),
            Some(325)
        );
        assert_eq!(
            parse_stat_cpu_ticks(&format!("42 (a b) c) (d) {tail}")),
            Some(325)
        );
        assert_eq!(parse_stat_cpu_ticks("42 (bench) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(
            parse_vm_hwm_mb("VmPeak:\t 10 kB\nVmHWM:\t    2048 kB\n"),
            Some(2.0)
        );
    }
}
