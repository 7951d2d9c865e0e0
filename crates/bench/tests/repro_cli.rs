//! The `repro` command line: argument errors exit 2 before any campaign
//! runs, and the artifact list prints each id once, in request order.

#![expect(clippy::expect_used, reason = "D7 covers library code; a test aborts on a failed step")]

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn unknown_artifact_id_exits_2_before_the_campaign() {
    let out = repro(&["--scale", "smoke", "table1", "fig99"]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "stdout: {}", text(&out.stdout));
    assert!(stderr.contains("\"fig99\""), "{stderr}");
    for id in ["table1", "fig16", "report", "ext-fleet"] {
        assert!(stderr.contains(id), "known id {id} not listed: {stderr}");
    }
    assert!(!stderr.contains("running campaign"), "{stderr}");
}

#[test]
fn kill_after_zero_is_rejected() {
    let dir = std::env::temp_dir().join(format!("repro-cli-kill0-{}", std::process::id()));
    let dir = dir.to_str().expect("temp path is UTF-8");
    let out = repro(&["--kill-after", "0", "--checkpoint-dir", dir, "table1"]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--kill-after"), "{stderr}");
    assert!(!stderr.contains("running campaign"), "{stderr}");
}

#[test]
fn repeated_ids_render_once_at_their_first_position() {
    let out = repro(&["--scale", "smoke", "table4", "all", "table4"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert_eq!(stdout.matches("Table 4 — AR/CAV configuration").count(), 1);
    assert!(stdout.starts_with("Table 4"), "table4 was asked for first");
    assert_eq!(stdout.matches("Table 1 — driving dataset statistics").count(), 1);
}
