//! Host fingerprint and process memory, attached to every result so that a
//! number from another machine or build does not read as a regression.

use crate::report::json_str;
use std::path::Path;
use xsc_core::MicroKernel;

/// What a result depends on besides the code: cores, SIMD support, the
/// GEMM micro-kernel in use and the ones the build offers, cache sizes and
/// the commit.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// SIMD extensions the CPU reports.
    pub simd_flags: Vec<&'static str>,
    /// The micro-kernel `gemm`/`par_gemm` dispatch to.
    pub microkernel: &'static str,
    /// L2 cache size in bytes (0 when unknown).
    pub l2_bytes: u64,
    /// L3 cache size in bytes (0 when unknown).
    pub l3_bytes: u64,
    /// Micro-kernels this build can dispatch; anything besides `scalar`
    /// means xsc-core was built with its `simd` feature.
    pub kernels: Vec<&'static str>,
    /// The source commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of the running host and build.
    pub fn detect() -> Fingerprint {
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_flags: simd_flags(),
            microkernel: xsc_core::microkernel::global_microkernel().name(),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            kernels: MicroKernel::available()
                .into_iter()
                .map(MicroKernel::name)
                .collect(),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The fingerprint as a JSON object body (`"key": value, ...`).
    pub fn json_fields(&self) -> String {
        let list = |v: &[&str]| {
            v.iter()
                .map(|f| format!("\"{f}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "\"cores\": {}, \"simd_flags\": [{}], \"microkernel\": \"{}\", \"kernels\": [{}], \
             \"l2_bytes\": {}, \"l3_bytes\": {}, \"commit\": \"{}\"",
            self.cores,
            list(&self.simd_flags),
            self.microkernel,
            list(&self.kernels),
            self.l2_bytes,
            self.l3_bytes,
            json_str(&self.commit)
        )
    }
}

fn simd_flags() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
        f
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Size in bytes of cpu0's unified or data cache at `level`, from sysfs.
fn cache_bytes(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0;
    };
    let read = |dir: &Path, file: &str| std::fs::read_to_string(dir.join(file)).unwrap_or_default();
    for e in entries.flatten() {
        let dir = e.path();
        let kind = read(&dir, "type");
        if read(&dir, "level").trim() != level.to_string() || kind.trim() == "Instruction" {
            continue;
        }
        return parse_size(read(&dir, "size").trim());
    }
    0
}

/// Parses a sysfs cache size such as `4096K` or `105M`.
fn parse_size(s: &str) -> u64 {
    let (num, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1 << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().map_or(0, |n| n * mult)
}

/// The commit `HEAD` names in the git directory `git`, read from files.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("4096K"), 4 << 20);
        assert_eq!(parse_size("105M"), 105 << 20);
        assert_eq!(parse_size("512"), 512);
        assert_eq!(parse_size("junk"), 0);
    }
}
