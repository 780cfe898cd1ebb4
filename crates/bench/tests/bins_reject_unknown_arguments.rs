//! Every binary of the crate rejects an argument it does not know: it exits
//! 2 with a usage line before it measures, prints or writes anything, so a
//! typo neither runs a partial evaluation that exits 0 nor overwrites a
//! checked-in report.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_before_anything_runs() {
    let cases: [(&str, &[&str]); 5] = [
        (env!("CARGO_BIN_EXE_all_figures"), &["fig10", "fgi15"]),
        (env!("CARGO_BIN_EXE_kernels"), &["--quik"]),
        (env!("CARGO_BIN_EXE_kernels"), &["--quick", "--out"]),
        (env!("CARGO_BIN_EXE_simperf"), &["--quick", "--bogus"]),
        (env!("CARGO_BIN_EXE_report"), &["--jsn"]),
    ];
    for (i, (bin, args)) in cases.into_iter().enumerate() {
        // A fresh working directory shows that no report file was written.
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bad_args_{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let what = format!("{bin} {args:?}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(out.stdout.is_empty(), "{what} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{what}: {stderr}");
        let left = std::fs::read_dir(&dir).expect("scratch dir").count();
        assert_eq!(left, 0, "{what} wrote a file");
    }
}
