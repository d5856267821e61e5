//! The host and run block every report carries, plus per-process memory
//! readings.

use gmap_trace::batch::{default_mode, KernelMode};
use std::process::Command;

/// Host and run identification.
#[derive(Debug, Clone)]
pub struct HostBlock {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// Worker threads the workload uses.
    pub threads: usize,
    /// Workload scale.
    pub scale: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// The kernel mode the library will use.
    pub kernel_mode: &'static str,
}

impl HostBlock {
    /// Collects the block, refusing to run when the library's kernel mode
    /// is not batched: a leaked `GMAP_SCALAR_KERNELS` would silently
    /// measure the scalar reference path.
    ///
    /// # Errors
    ///
    /// A message naming the wrong kernel mode.
    pub fn collect(threads: usize, scale: &'static str, seed: u64) -> Result<Self, String> {
        let kernel_mode = match default_mode() {
            KernelMode::Batched => "batched",
            KernelMode::Scalar => {
                return Err("gmap kernel mode is scalar (GMAP_SCALAR_KERNELS is set); \
                     the benchmark measures the batched default only"
                    .into())
            }
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Ok(HostBlock {
            cpu,
            nproc: nproc(),
            threads,
            scale,
            seed,
            commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            kernel_mode,
        })
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":{},\"nproc\":{},\"threads\":{},\"scale\":\"{}\",\"seed\":{},\"commit\":{},\"rustc\":{},\"kernel_mode\":\"{}\"}}",
            json_string(&self.cpu),
            self.nproc,
            self.threads,
            self.scale,
            self.seed,
            json_string(&self.commit),
            json_string(&self.rustc),
            self.kernel_mode
        )
    }
}

/// Available parallelism (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First stdout line of a command, or `"unknown"` when it fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set size
/// (Linux ≥ 4.0), so the next reading is the peak since this call.
pub fn reset_peak_rss() {
    // Best effort: without the reset the reading is the process peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds (user + system) this process has consumed, from
/// `/proc/self/stat` in 100 Hz clock ticks.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// A JSON string literal (quotes, backslashes and control characters
/// escaped).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
