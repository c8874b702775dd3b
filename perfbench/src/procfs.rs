//! Resource readings of a child process: CPU time and peak resident set
//! size from `/proc` while it runs, and from `wait4` when it exits.

use std::io;
use std::process::Child;
use std::time::Duration;

/// User plus system CPU time of every thread of a live process, read from
/// `/proc/<pid>/stat`. The kernel reports it in clock ticks; the tick
/// length comes from `sysconf(_SC_CLK_TCK)`.
pub fn cpu_time(pid: u32) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; every later field follows its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc stat line"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the fields start at `state` (field 3), so utime (14) and
    // stime (15) sit at offsets 11 and 12.
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("missing CPU field in /proc stat line"))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(Duration::from_secs_f64(ticks as f64 / clock_ticks_per_second()))
}

/// Clock ticks the hypervisor has taken from this machine's CPUs so far
/// (the `steal` column of `/proc/stat`, summed over CPUs).
pub fn steal_ticks() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let line = stat.lines().next().unwrap_or_default();
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| io::Error::other("no steal column in /proc/stat"))
}

/// The peak resident set size (`VmHWM`) of a live process, in bytes.
pub fn peak_rss(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
}

/// What `wait4` reports about an exited child.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Whether the process exited with status 0.
    pub success: bool,
    /// User plus system CPU time over the whole life of the process.
    pub cpu: Duration,
    /// Peak resident set size, in bytes.
    pub peak_rss: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and touches no caller memory.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Reaps `child` with `wait4`, returning its exit status and resource use.
/// The child must not have been waited for already.
pub fn reap(child: &mut Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the x86-64/aarch64 Linux `int` and `struct rusage` (two timevals
        // then fourteen longs), so wait4 writes only inside them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let cpu =
        |t: &Timeval| Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64);
    // WIFEXITED(status) && WEXITSTATUS(status) == 0
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Exit {
        success,
        cpu: cpu(&usage.utime) + cpu(&usage.stime),
        peak_rss: usage.maxrss.max(0) as u64 * 1024,
    })
}
