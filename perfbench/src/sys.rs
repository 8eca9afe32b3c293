//! Process-level helpers: peak memory, waiting for spawned ranks, the
//! work directory under the current directory, and content hashes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Peak resident set of this process in MB (`VmHWM`), or NaN when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// True while `pid` is a live process (a zombie has ended: its exit status
/// is only waiting to be collected by the thread that spawned it).
fn alive(pid: u64) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .is_some_and(|state| state != "Z" && state != "X"),
        Err(_) => false,
    }
}

/// Waits until every process in `pids` has ended, or `timeout` passes.
/// Returns whether all ended.
pub fn wait_for_exit(pids: &[u64], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if pids.iter().all(|&p| !alive(p)) {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A work directory under the current directory, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Remove the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// FNV-1a over a stream of 64-bit words: a content fingerprint for
/// comparing large answers bit for bit without keeping them.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Bitwise equality of two `f64` slices.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_sees_every_bit() {
        let fp = |v: &[f64]| {
            let mut h = Fnv::new();
            h.f64s(v);
            h.finish()
        };
        assert_eq!(fp(&[1.0, 2.0]), fp(&[1.0, 2.0]));
        assert_ne!(fp(&[1.0, 2.0]), fp(&[2.0, 1.0]));
        assert_ne!(fp(&[0.0]), fp(&[-0.0]));
        assert_ne!(fp(&[1.0]), fp(&[1.0, 1.0]));
        assert!(same_bits(&[0.5, -0.0], &[0.5, -0.0]));
        assert!(!same_bits(&[0.0], &[-0.0]));
    }

    #[test]
    fn this_process_is_alive_and_measured() {
        assert!(alive(u64::from(std::process::id())));
        assert!(peak_rss_mb() > 0.0);
    }
}
