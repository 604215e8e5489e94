//! What `/proc` says about the `chronusd` child and about the host.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them
/// (`USER_HZ`, fixed at 100 by the Linux ABI whatever the kernel's own HZ).
const USER_HZ: f64 = 100.0;

/// CPU milliseconds (user + system) out of a `/proc/<pid>/stat` line. The
/// command name in field 2 may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn cpu_ms_from_stat(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // `after` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / USER_HZ)
}

/// A `key:\tvalue [kB]` number out of `/proc/<pid>/status`.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Point-in-time resource use of one process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// CPU time consumed so far, all threads, in milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set (`VmHWM`) in kB.
    pub peak_rss_kb: u64,
    /// Voluntary plus involuntary context switches, summed over the threads
    /// alive now.
    pub ctx_switches: u64,
}

/// Samples process `pid`.
pub fn sample(pid: u32) -> std::io::Result<ProcSample> {
    let bad = |what: &str| std::io::Error::other(format!("/proc/{pid}: no {what}"));
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    let mut ctx_switches = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(text) = fs::read_to_string(task?.path().join("status")) {
            ctx_switches += status_field(&text, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    Ok(ProcSample {
        cpu_ms: cpu_ms_from_stat(&stat).ok_or_else(|| bad("utime/stime"))?,
        peak_rss_kb: status_field(&status, "VmHWM").ok_or_else(|| bad("VmHWM"))?,
        ctx_switches,
    })
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts` text
/// (longest mount-point prefix wins).
pub fn fs_type_of(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype.to_string())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(key, value)` pairs identifying the host and toolchain a result came
/// from. `state_dir` is where the journal is written, whose filesystem sets
/// the cost of an fsync.
pub fn host_fingerprint(state_dir: &Path) -> Vec<(&'static str, String)> {
    let read = |p: &str| fs::read_to_string(p).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|x| x.1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    let abs = fs::canonicalize(state_dir).unwrap_or_else(|_| state_dir.to_path_buf());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("cpu_model", cpu_model),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        (
            "state_dir_fs",
            fs_type_of(&read("/proc/mounts"), &abs).unwrap_or_else(|| "unknown".to_string()),
        ),
        ("rustc", first_line_of("rustc", &["--version"])),
        ("git_commit", first_line_of("git", &["rev-parse", "HEAD"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_a_hostile_command_name() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime ...
        let stat = "4242 (chro) nus d) S 1 4242 4242 0 -1 4194560 900 0 3 0 1234 66 0 0 20 0 5 0";
        assert_eq!(cpu_ms_from_stat(stat), Some(13_000.0));
        assert_eq!(cpu_ms_from_stat("garbage"), None);
        assert_eq!(cpu_ms_from_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tchronusd\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t77\n\
                      nonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(status_field(status, "VmHWM"), Some(20_480));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(77));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(5));
        assert_eq!(status_field(status, "VmRSS"), None);
    }

    #[test]
    fn own_process_can_be_sampled() {
        let s = sample(std::process::id()).unwrap();
        assert!(s.peak_rss_kb > 0);
    }

    #[test]
    fn longest_mount_prefix_names_the_filesystem() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(
            fs_type_of(mounts, Path::new("/tmp/x/state")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            fs_type_of(mounts, Path::new("/root/repo")).as_deref(),
            Some("ext4")
        );
    }
}
