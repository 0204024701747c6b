//! Host context written with every result, and the process CPU clock.

use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostContext {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// The CPU features the kernels dispatch on, those present.
    pub cpu_features: Vec<&'static str>,
    /// `sha256::Kernel::detect().name()`.
    pub sha256_kernel: &'static str,
    /// The checked-out commit, or "unknown" outside a git checkout.
    pub git_sha: String,
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl HostContext {
    pub fn detect() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let git_sha = git_head().unwrap_or_else(|| "unknown".to_string());
        HostContext {
            cores,
            cpu_features: cpu_features(),
            sha256_kernel: hyrd_dedup::sha256::Kernel::detect().name(),
            git_sha,
            rustc: env!("HYRD_PERF_RUSTC"),
            profile: env!("HYRD_PERF_PROFILE"),
        }
    }

    /// Scaling rows (speed-up against thread or shard count) are skipped,
    /// not faked, below four cores.
    pub fn scaling_rows(&self) -> bool {
        self.cores >= 4
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        let features: Vec<String> = self.cpu_features.iter().map(|f| format!("\"{f}\"")).collect();
        format!(
            "{{\"cores\":{},\"cpu_features\":[{}],\"sha256_kernel\":\"{}\",\
             \"git_sha\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"scaling_rows\":{}}}",
            self.cores,
            features.join(","),
            self.sha256_kernel,
            crate::json::escape(&self.git_sha),
            crate::json::escape(self.rustc),
            self.profile,
            self.scaling_rows()
        )
    }
}

/// The commit checked out in the repository this package sits in, read
/// from `.git` directly (no process, nothing outside the checkout). `None`
/// without a `.git` directory or when the ref is packed.
fn git_head() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            Some(std::fs::read_to_string(git.join(reference)).ok()?.trim().to_string())
        }
        None => Some(head.to_string()),
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    macro_rules! probe {
        ($($name:tt),*) => {$(
            if std::arch::is_x86_feature_detected!($name) {
                found.push($name);
            }
        )*};
    }
    probe!("ssse3", "sse4.1", "avx2", "avx512f", "sha");
    found
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> Vec<&'static str> {
    Vec::new()
}

/// CPU time this process has consumed, user + system, all threads
/// (exited ones included), in seconds.
///
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` rather than `/proc/self/stat`:
/// the same quantity at nanosecond instead of 10 ms resolution, which a
/// one-second lap needs to resolve a few percent.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for 64-bit Linux
    // (two 64-bit fields, as laid out by `repr(C)`), and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hyrd-perf reads the process CPU clock with clock_gettime on 64-bit Linux");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn host_context_is_complete() {
        let host = HostContext::detect();
        assert!(host.cores >= 1);
        assert!(!host.sha256_kernel.is_empty() && !host.rustc.is_empty());
        assert_eq!(host.scaling_rows(), host.cores >= 4);
        let json = crate::json::parse(&host.to_json()).expect("valid json");
        assert_eq!(json.get("cores").and_then(|v| v.as_f64()), Some(host.cores as f64));
    }
}
