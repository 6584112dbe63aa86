//! The property the `diff` gate rests on: a result file's bytes are a
//! function of the code alone — not of the run, the clock, the machine or
//! `--threads` — and equal the committed baseline.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run one experiment binary at `--quick` into a directory of its own and
/// return the bytes of the file it wrote.
fn run(exe: &str, target: &str, threads: usize, tag: &str) -> String {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("reports_{target}_{tag}"));
    let _ = std::fs::remove_dir_all(&out);
    let output = Command::new(exe)
        .args(["--quick", "--threads", &threads.to_string(), "--out"])
        .arg(&out)
        .output()
        .expect("spawn experiment binary");
    assert!(
        output.status.success(),
        "{target} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let written: Vec<_> = std::fs::read_dir(&out)
        .expect("out dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(written, [format!("BENCH_{target}.json").as_str()]);
    std::fs::read_to_string(out.join(&written[0])).expect("result file")
}

fn check(exe: &str, target: &str) {
    let first = run(exe, target, 1, "a");
    assert_eq!(first, run(exe, target, 1, "b"), "{target}: two runs differ");
    assert_eq!(
        first,
        run(exe, target, 4, "t4"),
        "{target}: --threads 4 differs from --threads 1"
    );
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../benches/baselines")
        .join(format!("BENCH_{target}.json"));
    assert_eq!(
        first,
        std::fs::read_to_string(&baseline).expect("committed baseline"),
        "{target}: differs from {}",
        baseline.display()
    );
    for word in ["_ms", "toolchain", "threads"] {
        assert!(!first.contains(word), "{target}: file mentions `{word}`");
    }
}

#[test]
fn fig2_counts_file_is_reproducible_and_committed() {
    check(env!("CARGO_BIN_EXE_fig2_counts"), "fig2_counts");
}

#[test]
fn fig_topk_file_is_reproducible_and_committed() {
    check(env!("CARGO_BIN_EXE_fig_topk"), "fig_topk");
}
