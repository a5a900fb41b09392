//! Process accounting read from `/proc/self`: CPU time and peak RSS.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100 on
/// every Linux architecture this repository builds on; reading it properly
/// needs `sysconf`, which needs libc, which the offline workspace lacks.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads, including ones
/// that have exited) has consumed. `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB. `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let rss = peak_rss_mib().expect("VmHWM on linux");
        assert!(rss > 0.5, "{rss}");
        let before = cpu_seconds().expect("cpu on linux");
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = cpu_seconds().unwrap();
        assert!(after >= before);
        assert!(after - before < 5.0);
    }
}
