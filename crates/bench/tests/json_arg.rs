//! The figure binaries write a trajectory file only to an explicit
//! `--json=PATH`: a bare `--json` is a usage error, caught before the
//! matrix runs, and writes nothing.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn bare_json_flag_is_a_usage_error_and_writes_nothing() {
    for (name, exe) in [
        ("figure7", env!("CARGO_BIN_EXE_figure7")),
        ("figure8", env!("CARGO_BIN_EXE_figure8")),
        ("validate", env!("CARGO_BIN_EXE_validate")),
    ] {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("json_arg_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        let out = Command::new(exe)
            .arg("--json")
            .current_dir(&dir)
            .output()
            .expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{name} --json: {out:?}");
        assert!(out.stdout.is_empty(), "{name} --json ran before failing");
        let left: Vec<_> = std::fs::read_dir(&dir).expect("readable").collect();
        assert!(left.is_empty(), "{name} --json wrote {left:?}");
        std::fs::remove_dir_all(&dir).expect("scratch directory is removable");
    }
}
