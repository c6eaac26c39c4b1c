//! A reader that closes the CLI's stdout early (`manet-guard detect … |
//! head -2`) ends its output quietly: exit 0, no panic, no backtrace, and
//! the files the command writes after its report are still written.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_output_quietly() {
    let dir = std::env::temp_dir().join(format!("mg-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.bin");
    let mut child = Command::new(env!("CARGO_BIN_EXE_manet-guard"))
        .args(["detect", "--pm", "100", "--secs", "1", "--seed", "5", "--record"])
        .arg(&journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("manet-guard starts");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    for _ in 0..2 {
        lines.next().expect("a line").expect("readable");
    }
    drop(lines); // closes the pipe with the report still to come
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
    assert!(out.status.success(), "{:?}, stderr: {stderr}", out.status);
    let recorded = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(recorded > 0, "the --record journal was not written");
}
