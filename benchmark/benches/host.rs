//! What the host charges a run: CPU time, peak memory, a scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Linux reports process CPU time in clock ticks of 1/100 s (`USER_HZ`, fixed
/// by the kernel ABI on every architecture this repo builds on).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads
/// (`/proc/self/stat`, fields 14 and 15).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields count from after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("/proc/self/stat: no command field")?;
    let ticks = |i: usize| -> Result<f64, String> {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/self/stat: field {} unreadable", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
}

/// Peak resident set of this process in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// A scratch directory owned by this process, beside the executable — so
/// inside the build directory of the checkout, wherever that is — and removed
/// when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create() -> Result<TempDir, String> {
        // Unique per process and, for the tests' parallel threads, per call.
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.parent().ok_or("executable has no parent directory")?.join(format!(
            "dfsim-benchmark-tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and sits in a build
        // directory git ignores.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
