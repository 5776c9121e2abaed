//! Where and on what a result was measured, and the process's peak memory.

use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The provenance fields written with every result, in output order.
pub fn collect(workers: usize) -> Vec<(&'static str, String)> {
    let root = repo_root();
    let nproc = nproc();
    let simd = tileqr_kernels::simd::active().name().to_string();
    let cpu = cpu_model();
    vec![
        ("git_rev", git_rev(root)),
        ("source_digest", format!("{:016x}", source_digest(root))),
        ("host_fingerprint", host_fingerprint(&cpu, nproc, &simd)),
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("pool_workers", workers.to_string()),
        ("simd", simd),
        ("fma", cfg!(feature = "fma").to_string()),
        ("rustc", rustc_version()),
        ("date_utc", utc_date()),
    ]
}

/// The checkout the harness was built from (the parent of its package).
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), `0.0` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Share of the guest's CPU time the hypervisor gave to other guests
/// (`steal` in `/proc/stat`) between two [`cpu_ticks`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// `(steal, total)` CPU ticks from the aggregate line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user/nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name")
        .map(|v| v.trim_start_matches(':').trim().to_string())
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// Records from hosts with different fingerprints are never compared:
/// CPU model, core count, memory size and SIMD level all move the numbers.
fn host_fingerprint(cpu: &str, nproc: usize, simd: &str) -> String {
    let mem = proc_field("/proc/meminfo", "MemTotal:").unwrap_or_default();
    let key = format!("{cpu}|{nproc}|{mem}|{simd}|{}", std::env::consts::ARCH);
    format!("{:016x}", fnv1a(FNV_OFFSET, key.as_bytes()))
}

/// The revision, when the checkout is a git repository.
fn git_rev(root: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout; see source_digest)".into())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the library and harness sources (every `.rs`, `Cargo.toml`
/// and `Cargo.lock` under `crates/`, `perfbench/` and the root manifest):
/// identifies the code measured even where there is no git metadata.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        list_sources(&root.join(top), &mut files);
    }
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, path| {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let h = fnv1a(h, rel.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(path).unwrap_or_default())
    })
}

fn list_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            list_sources(&entry.path(), out);
        }
    } else if path.extension().is_some_and(|e| e == "rs")
        || path
            .file_name()
            .is_some_and(|n| n == "Cargo.toml" || n == "Cargo.lock")
    {
        out.push(path.to_path_buf());
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days conversion).
fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days since 1970-01-01 to a proleptic Gregorian `(year, month, day)`.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        assert_eq!(civil_from_days(20_743), (2026, 10, 17));
    }

    #[test]
    fn fingerprint_separates_hosts() {
        assert_eq!(
            host_fingerprint("cpu A", 2, "avx2"),
            host_fingerprint("cpu A", 2, "avx2")
        );
        assert_ne!(
            host_fingerprint("cpu A", 2, "avx2"),
            host_fingerprint("cpu A", 4, "avx2")
        );
        assert_ne!(
            host_fingerprint("cpu A", 2, "avx2"),
            host_fingerprint("cpu B", 2, "avx2")
        );
    }
}
