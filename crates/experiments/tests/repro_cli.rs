//! Command-line contract of the `repro` binary.

use std::process::Command;

/// `--generator` is not a `repro` flag: a script still passing it must
/// fail with the usage error and exit code 2, not silently run.
#[test]
fn generator_flag_is_rejected_as_unknown() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["analytic", "--generator", "kron"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag `--generator`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}
