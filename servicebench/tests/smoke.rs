//! Smoke mode of the whole benchmark: every workload at small sizes, on
//! two seeds, once untraced and once traced. A broken harness, a handshake
//! mismatch with `idldp serve`'s mechanism construction, or a stuck
//! open-loop generator fails this in seconds rather than in a full run.
//!
//! Run with `cargo test --release --manifest-path servicebench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Builds the release `idldp` binary into a target directory of its own
/// inside the benchmark's (the running `cargo test` holds the lock on the
/// benchmark's own) and returns its path.
fn idldp_binary() -> PathBuf {
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_servicebench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .expect("the benchmark binary sits in <target>/<profile>/")
        .join("idldp-under-test");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "idldp-cli",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(repo_root())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building idldp failed");
    target.join("release").join("idldp")
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared_metrics(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let section = text
        .split(&format!("\"{key}\""))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("section present");
    section
        .split("\"name\"")
        .skip(1)
        .map(|entry| entry.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(idldp: &Path, seed: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_servicebench"))
        .args(["--idldp"])
        .arg(idldp)
        .args([
            "--workload",
            "all",
            "--seed",
            seed,
            "--seconds",
            "2",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "smoke run (seed {seed}, trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true,"),
        "result line: {last}"
    );
    stdout
}

#[test]
fn every_workload_runs_correctly_on_two_seeds_and_reports_every_metric() {
    let idldp = idldp_binary();
    let plain = run(&idldp, "1", "0");
    let traced = run(&idldp, "2", "1");
    for (key, stdout) in [("end_to_end", &plain), ("per_layer", &traced)] {
        let declared = declared_metrics(key);
        assert!(!declared.is_empty(), "no {key} metrics declared");
        for workload in ["ingest-oue", "ingest-olh-ss", "query-live", "fleet-grr"] {
            for name in &declared {
                let want = format!("\"{workload}/{name}\": {{\"value\": ");
                assert!(
                    stdout.contains(&want),
                    "{workload} did not report {name} ({key})"
                );
            }
        }
    }
    assert!(
        traced.contains("baseline | ss (item-set"),
        "baseline table missing"
    );
}
