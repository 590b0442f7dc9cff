//! The table bins refuse flags they do not know, naming the flag and
//! exiting 2 before any work starts.

use std::process::Command;

#[test]
fn share_cap_is_an_unknown_flag() {
    for bin in [
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_table5"),
    ] {
        let out = Command::new(bin)
            .args(["--share", "--share-cap", "4"])
            .output()
            .expect("spawn table bin");
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("unknown flag `--share-cap`"),
            "{bin}: {stderr}"
        );
    }
}
