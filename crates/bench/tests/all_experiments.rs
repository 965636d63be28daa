//! The `all_experiments` entry point as a process: an unknown experiment
//! name fails before any experiment runs.

use std::process::Command;

#[test]
fn unknown_name_exits_2_with_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(["table01", "figure99"])
        .output()
        .expect("all_experiments runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran before the check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`figure99`"), "{stderr}");
    for e in &mascot_bench::experiments::EXPERIMENTS {
        assert!(stderr.contains(e.name), "{stderr} lacks {}", e.name);
    }
}
