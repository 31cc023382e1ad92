//! End-to-end checks of the report binaries' shared command-line protocol
//! (`nde_bench::gate`): `--diff` dispatch on the committed baselines, and
//! command-line errors that must stop before anything is run or written.

use std::path::Path;
use std::process::{Command, Output};

const PERF: &str = env!("CARGO_BIN_EXE_perf_report");
const QUALITY: &str = env!("CARGO_BIN_EXE_quality_report");
const BENCH_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
const PROFILE_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROFILE_baseline.json");

fn run(bin: &str, args: &[&str], cwd: &Path) -> Output {
    let mut command = Command::new(bin);
    command.args(args).current_dir(cwd);
    command.output().expect("spawn report binary")
}

#[test]
fn diff_of_each_committed_baseline_against_itself_passes() {
    for (bin, path) in [(PERF, BENCH_BASELINE), (QUALITY, PROFILE_BASELINE)] {
        let out = run(bin, &["--diff", path, path], &std::env::temp_dir());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{bin} --diff {path}: {stdout}");
        assert!(stdout.lines().any(|l| l.starts_with("PASS")), "{stdout}");
    }
}

#[test]
fn command_line_errors_print_usage_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("nde_report_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (bin, args) in [
        (QUALITY, &["--out"][..]),
        (QUALITY, &["--label", "--out", "f.json"]),
        (
            PERF,
            &["--diff", BENCH_BASELINE, BENCH_BASELINE, "--time-tol", "x"],
        ),
        (PERF, &["--label", "run", "--counter-tol", "lots"]),
        (PERF, &["--lable", "run"]),
    ] {
        let out = run(bin, args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        let written = std::fs::read_dir(&dir).expect("list temp dir").count();
        assert_eq!(written, 0, "{bin} {args:?} wrote a file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
