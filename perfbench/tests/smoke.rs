//! Minimal-length runs of every workload through the real binary,
//! checking the printed result's schema.
//!
//! `serve_mix` starts the `gmap` binary that `perfbench/run.sh` builds
//! into the same target directory; build it first with
//! `bash perfbench/run.sh --help` (or `cargo build --release --bin gmap`
//! with the same `CARGO_TARGET_DIR`) and run these tests in release mode.

use perfbench::report::{END_TO_END, PER_LAYER};
use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .args(["--root", concat!(env!("CARGO_MANIFEST_DIR"), "/..")])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("perfbench runs")
}

/// Runs a workload untraced and traced and checks both result lines.
fn check(workload: &str, extra: &[&str]) {
    for (trace, expected) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let mut args = vec![
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            trace,
        ];
        args.extend_from_slice(extra);
        let out = perfbench(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{workload}: {last}"
        );
        assert!(
            last.contains(",\"failed\":0,\"metrics\":{"),
            "{workload}: {last}"
        );
        assert_eq!(
            last.matches("\"value\":").count(),
            expected.len(),
            "{workload} --trace {trace}: exactly the listed metrics"
        );
        for (name, unit) in expected {
            let field = format!("\"{name}\":{{\"value\":");
            let at = last
                .find(&field)
                .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
            let rest = &last[at + field.len()..];
            let (value, tail) = rest.split_once(',').expect("value then unit");
            let value: f64 = value.parse().expect("numeric value");
            assert!(value.is_finite());
            assert!(
                tail.starts_with(&format!("\"unit\":\"{unit}\"}}")),
                "{name} unit"
            );
            if trace == "0" {
                assert!(value > 0.0, "{workload}: end-to-end {name} is 0");
            }
        }
    }
}

#[test]
fn sweep_lru_smoke_run_prints_the_result_schema() {
    check("sweep_lru", &["--benchmarks", "scalarprod,backprop"]);
}

#[test]
fn sweep_prefetch_smoke_run_prints_the_result_schema() {
    check("sweep_prefetch", &["--benchmarks", "scalarprod"]);
}

#[test]
fn serve_mix_smoke_run_prints_the_result_schema() {
    check("serve_mix", &["--requests", "60"]);
}

#[test]
fn a_run_without_the_repository_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "sweep_lru",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--root",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}

#[test]
fn scalar_kernel_mode_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "sweep_lru",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("GMAP_SCALAR_KERNELS", "1")
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("scalar"));
    assert!(out.stdout.is_empty());
}
