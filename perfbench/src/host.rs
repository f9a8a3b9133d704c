//! Host and build fingerprint, and process memory readings.

use std::path::Path;

/// What every result record names about where and how it was measured.
pub struct Fingerprint {
    pub parallelism: usize,
    pub cpu_model: String,
    pub profile: &'static str,
    pub revision: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and of the checkout at `root`.
    pub fn collect(root: &Path) -> Self {
        Fingerprint {
            parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model: cpu_model(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            revision: revision(root),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: available_parallelism={} cpu=\"{}\" profile={} revision={}",
            self.parallelism, self.cpu_model, self.profile, self.revision
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision when `root` is a git checkout; otherwise a digest of
/// the simulator sources (`src:<hex>`), which identifies the build as well.
fn revision(root: &Path) -> String {
    if let Some(rev) = git_head(root) {
        return rev;
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash = Fnv::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            hash.write(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            hash.write(&bytes);
        }
    }
    format!("src:{:016x}", hash.finish())
}

fn git_head(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

/// 64-bit FNV-1a, for digests that must not depend on the std hasher.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one) in
/// MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user plus system) that process `pid` has used so far, in
/// seconds, from `/proc/<pid>/stat`; it counts threads that have exited.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // /proc reports clock ticks in USER_HZ, which Linux fixes at 100.
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds("self").expect("own /proc/self/stat");
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = cpu_seconds("self").expect("own /proc/self/stat");
        assert!(after > before, "{before} s then {after} s");
    }
}
