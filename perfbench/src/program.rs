//! The program under test: building `mlrl` from source, running one of
//! its processes to completion with its wall time and peak resident
//! memory, and sizing what it leaves on disk.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads peak memory through wait4(2) as laid out on 64-bit Linux");

/// Builds the `mlrl` binary in release mode from the checkout in the
/// current directory and returns its absolute path. Honours
/// `CARGO_TARGET_DIR` the way cargo does (relative to the current
/// directory).
pub fn build() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "mlrl"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mlrl failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("mlrl");
    std::fs::canonicalize(&bin).map_err(|e| format!("no binary at {}: {e}", bin.display()))
}

/// One finished program process.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Launch to exit.
    pub wall_s: f64,
    /// Peak resident set of the process or of any descendant it waited
    /// for (the kernel's `ru_maxrss` over both), in KiB.
    pub max_rss_kib: u64,
    /// User plus system CPU time of the process and the descendants it
    /// waited for.
    pub cpu_s: f64,
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
}

/// Runs `bin args...` from the current directory with stdout and stderr
/// written to the given files, and waits for it.
pub fn run(bin: &Path, args: &[String], stdout: &Path, stderr: &Path) -> Result<Finished, String> {
    let out = File::create(stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let err = File::create(stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let (status, usage) = reap(child.id())?;
    let wall_s = started.elapsed().as_secs_f64();
    // WIFEXITED / WEXITSTATUS.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let seconds = |sec: i64, usec: i64| sec as f64 + usec as f64 * 1e-6;
    Ok(Finished {
        wall_s,
        max_rss_kib: u64::try_from(usage.fields[RU_MAXRSS]).unwrap_or(0),
        cpu_s: seconds(usage.fields[0], usage.fields[1])
            + seconds(usage.fields[2], usage.fields[3]),
        code,
    })
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s, the
/// first of which is `ru_maxrss`.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

const RU_MAXRSS: usize = 4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Waits for child `pid` and returns its raw wait status and resource
/// usage.
/// `std::process::Child::wait` reports no resource usage, hence the
/// direct call; the `Child` handle is never waited on afterwards.
fn reap(pid: u32) -> Result<(i32, RUsage), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage { fields: [0; 18] };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals laid out
        // as wait4(2) writes them on 64-bit Linux (an int and the 18-long
        // `struct rusage`, checked by the compile_error above); `pid` is
        // a child this process spawned and nothing else waits for.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
}

/// Total bytes and number of regular files under `dir` (0, 0 when it
/// does not exist).
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut total = (0, 0);
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (bytes, files) = dir_usage(&entry.path());
            total = (total.0 + bytes, total.1 + files);
        } else if meta.is_file() {
            total = (total.0 + meta.len(), total.1 + 1);
        }
    }
    total
}
