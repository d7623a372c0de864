//! What the kernel says this process used: `/proc/self/{stat,io,status}`.
//!
//! Sampled before and after a rep at no cost to the rep. The parsers take
//! text so the tests can feed them canned files.

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// has reported these in `USER_HZ` = 100 on every architecture since 2.6.
const TICKS_PER_S: f64 = 100.0;

/// Cumulative counters of the whole process (all threads, exited ones
/// included) — except `vol_ctx_switches`, which `/proc/self/status` only
/// keeps for the main thread: the harness thread that drives the CLI.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    /// Bytes moved by `read`-family system calls (`rchar`).
    pub read_bytes: u64,
    /// Bytes moved by `write`-family system calls (`wchar`).
    pub write_bytes: u64,
    /// `syscr + syscw`.
    pub rw_syscalls: u64,
    pub vol_ctx_switches: u64,
    /// Peak resident set, kB (`VmHWM`).
    pub vm_hwm_kb: u64,
}

impl ProcSample {
    /// Samples the calling process.
    pub fn now() -> std::io::Result<ProcSample> {
        let read = std::fs::read_to_string;
        let mut s = ProcSample::default();
        apply_stat(&mut s, &read("/proc/self/stat")?).map_err(invalid)?;
        apply_io(&mut s, &read("/proc/self/io")?).map_err(invalid)?;
        apply_status(&mut s, &read("/proc/self/status")?).map_err(invalid)?;
        Ok(s)
    }

    /// The counters accumulated since `earlier` (`vm_hwm_kb`, a high-water
    /// mark, is carried over as it is now).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            rw_syscalls: self.rw_syscalls - earlier.rw_syscalls,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
            vm_hwm_kb: self.vm_hwm_kb,
        }
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// `/proc/<pid>/stat`: fields are counted after the `(comm)` field, which
/// may itself contain spaces and parentheses — so from the last `)`.
pub fn apply_stat(s: &mut ProcSample, text: &str) -> Result<(), String> {
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("stat: no `)` after the command name")?;
    // `rest` starts at field 3 (state); minflt is 10, utime 14, stime 15.
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        f.get(n - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("stat: field {n} missing or not a number"))
    };
    s.minor_faults = field(10)?;
    s.user_s = field(14)? as f64 / TICKS_PER_S;
    s.sys_s = field(15)? as f64 / TICKS_PER_S;
    Ok(())
}

/// The value of `key:` in a `key: value [unit]` file.
fn keyed(text: &str, file: &str, key: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("{file}: no numeric `{key}`"))
}

/// `/proc/<pid>/io`.
pub fn apply_io(s: &mut ProcSample, text: &str) -> Result<(), String> {
    s.read_bytes = keyed(text, "io", "rchar")?;
    s.write_bytes = keyed(text, "io", "wchar")?;
    s.rw_syscalls = keyed(text, "io", "syscr")? + keyed(text, "io", "syscw")?;
    Ok(())
}

/// `/proc/<pid>/status`.
pub fn apply_status(s: &mut ProcSample, text: &str) -> Result<(), String> {
    s.vm_hwm_kb = keyed(text, "status", "VmHWM")?;
    s.vol_ctx_switches = keyed(text, "status", "voluntary_ctxt_switches")?;
    Ok(())
}

/// Jiffies the hypervisor ran something else while this guest was
/// runnable: the `steal` column of `/proc/stat`'s first line.
pub fn steal_jiffies(proc_stat: &str) -> Option<u64> {
    let cpu = proc_stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_ascii_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (ute bench) x) R 1 4242 4242 0 -1 4194560 1234 0 7 0 \
                        250 75 0 0 20 0 3 0 1000 123456789 4321 18446744073709551615 1 1 \
                        0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n";
    const IO: &str = "rchar: 1000\nwchar: 2500\nsyscr: 10\nsyscw: 5\nread_bytes: 0\n\
                      write_bytes: 4096\ncancelled_write_bytes: 0\n";
    const STATUS: &str = "Name:\tute\nVmPeak:\t  999 kB\nVmHWM:\t    1676 kB\nVmRSS:\t 1500 kB\n\
                          voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";

    #[test]
    fn stat_is_read_past_a_command_name_with_spaces_and_parens() {
        let mut s = ProcSample::default();
        apply_stat(&mut s, STAT).unwrap();
        assert_eq!((s.minor_faults, s.user_s, s.sys_s), (1234, 2.5, 0.75));
        assert!(apply_stat(&mut s, "1 (x) R 1 2").is_err());
        assert!(apply_stat(&mut s, "garbage").is_err());
    }

    #[test]
    fn io_and_status_keys_are_found_by_exact_name() {
        let mut s = ProcSample::default();
        apply_io(&mut s, IO).unwrap();
        assert_eq!(
            (s.read_bytes, s.write_bytes, s.rw_syscalls),
            (1000, 2500, 15)
        );
        apply_status(&mut s, STATUS).unwrap();
        // `voluntary_…` must not match the `nonvoluntary_…` line, nor
        // `VmHWM` the `VmPeak` one.
        assert_eq!((s.vm_hwm_kb, s.vol_ctx_switches), (1676, 12));
        assert!(apply_io(&mut s, "rchar: 1\n").is_err());
        assert!(apply_status(&mut s, "VmHWM:\tmany kB\n").is_err());
    }

    #[test]
    fn deltas_keep_the_high_water_mark() {
        let a = ProcSample {
            user_s: 1.0,
            minor_faults: 10,
            vm_hwm_kb: 100,
            ..ProcSample::default()
        };
        let b = ProcSample {
            user_s: 1.5,
            minor_faults: 25,
            vm_hwm_kb: 300,
            ..ProcSample::default()
        };
        let d = b.since(&a);
        assert_eq!((d.user_s, d.minor_faults, d.vm_hwm_kb), (0.5, 15, 300));
    }

    #[test]
    fn steal_is_the_eighth_column() {
        let text = "cpu  2101193 0 810713 3862907 56401 0 20498 95455 0 0\ncpu0 1 2 3\n";
        assert_eq!(steal_jiffies(text), Some(95455));
        assert_eq!(steal_jiffies("intr 1 2 3\n"), None);
    }

    #[test]
    fn the_live_files_parse() {
        let s = ProcSample::now().unwrap();
        assert!(s.vm_hwm_kb > 0);
    }
}
