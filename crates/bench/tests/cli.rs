//! `ohpc-bench` refuses what it does not know with usage and exit code 2,
//! before it measures anything.

use std::process::Command;

#[test]
fn unknown_subcommands_and_arguments_exit_2_with_usage() {
    for args in [&["fig6"][..], &["fig5", "--network", "token-ring"], &["overload", "--gate"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ohpc-bench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ohpc-bench"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
