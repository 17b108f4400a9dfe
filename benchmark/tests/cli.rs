//! Command-line contract: usage errors are exit 2 and print no result.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn unknown_workload_or_flag_is_exit_2() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "quick_suite", "--bogus", "1"],
        &["--workload", "quick_suite", "--seed", "minus-one"],
        &["--seed", "1"],
        &["run", "--workload", "quick_suite"],
        &["compare", "only-one.json"],
    ] {
        let (code, stdout) = run(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert_eq!(stdout, "", "{args:?} printed a result");
    }
}
