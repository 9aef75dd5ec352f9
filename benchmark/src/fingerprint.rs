//! What built and ran the numbers: every output carries this, and a build
//! that silently lost `target-cpu=native` is refused.

use crate::json::{Value, ValueExt};
use lamb::kernels::BlockConfig;
use std::process::Command;

/// The build and machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Commit the checkout is at, or `unknown` outside a git repository.
    pub git_rev: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Whether the build may use fused multiply-add.
    pub fma: bool,
    /// Whether the build may use AVX2.
    pub avx2: bool,
    /// Whether the build may use AVX-512F.
    pub avx512f: bool,
    /// Whether the CPU reports FMA (`/proc/cpuinfo`), when that is readable.
    pub cpu_fma: Option<bool>,
    /// `BlockConfig::default().fingerprint()`.
    pub block_config: String,
    /// `RAYON_NUM_THREADS`, or `unset`.
    pub rayon_num_threads: String,
}

/// Read `HEAD` of the git repository in the working directory without
/// starting `git` (the driver's checkout is not a repository).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

fn cpu_reports_fma() -> Option<bool> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let flags = info.lines().find(|l| l.starts_with("flags"))?;
    Some(flags.split_whitespace().any(|f| f == "fma"))
}

impl Fingerprint {
    /// Collect the fingerprint of this build on this machine.
    pub fn collect() -> Self {
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Fingerprint {
            git_rev: git_rev(),
            rustc,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            fma: cfg!(target_feature = "fma"),
            avx2: cfg!(target_feature = "avx2"),
            avx512f: cfg!(target_feature = "avx512f"),
            cpu_fma: cpu_reports_fma(),
            block_config: BlockConfig::default().fingerprint(),
            rayon_num_threads: std::env::var("RAYON_NUM_THREADS")
                .unwrap_or_else(|_| "unset".into()),
        }
    }

    /// Refuse a build that lacks FMA on a CPU that has it: cargo reads the
    /// repository's `.cargo/config.toml` (`target-cpu=native`) by working
    /// directory, so building from anywhere else silently drops it and every
    /// kernel falls to the unfused path.
    ///
    /// # Errors
    ///
    /// The message to print before exiting non-zero.
    pub fn check_build(&self) -> Result<(), String> {
        if self.cpu_fma == Some(true) && !self.fma {
            return Err(
                "the CPU reports FMA but this build lacks it: build and run from the repository \
                 root so that .cargo/config.toml (target-cpu=native) applies"
                    .into(),
            );
        }
        Ok(())
    }

    /// The fingerprint as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("git_rev", Value::str(&self.git_rev)),
            ("rustc", Value::str(&self.rustc)),
            ("nproc", Value::Num(self.nproc as f64)),
            ("target_fma", Value::Bool(self.fma)),
            ("target_avx2", Value::Bool(self.avx2)),
            ("target_avx512f", Value::Bool(self.avx512f)),
            ("cpu_fma", self.cpu_fma.map_or(Value::Null, Value::Bool)),
            ("block_config", Value::str(&self.block_config)),
            ("rayon_num_threads", Value::str(&self.rayon_num_threads)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_build_without_fma_on_an_fma_cpu_is_refused() {
        let mut fp = Fingerprint::collect();
        fp.cpu_fma = Some(true);
        fp.fma = false;
        assert!(fp.check_build().is_err());
        fp.fma = true;
        assert!(fp.check_build().is_ok());
        fp.cpu_fma = None;
        fp.fma = false;
        assert!(fp.check_build().is_ok(), "unknown CPU: nothing to compare");
    }

    #[test]
    fn the_fingerprint_serialises_every_field() {
        let v = Fingerprint::collect().to_value();
        for key in [
            "git_rev",
            "rustc",
            "nproc",
            "target_fma",
            "target_avx2",
            "target_avx512f",
            "cpu_fma",
            "block_config",
            "rayon_num_threads",
        ] {
            assert!(v.get(key).is_some(), "{key}");
        }
        assert!(v
            .get("block_config")
            .and_then(Value::as_str)
            .unwrap()
            .contains("mc"));
    }
}
