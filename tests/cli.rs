//! End-to-end checks of the `ftjvm-run` command line: exit codes and the
//! messages a user sees when a run cannot be completed.

use std::process::{Command, Output};

fn ftjvm_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftjvm-run")).args(args).output().expect("ftjvm-run starts")
}

/// A primary crash while the standby is dead (killed, no re-integration)
/// is a double failure the pair cannot mask: the CLI reports the lost run
/// and exits nonzero instead of claiming a takeover.
#[test]
fn crash_with_dead_standby_reports_a_lost_run() {
    for variant in ["records", "intervals"] {
        let out = ftjvm_run(&[
            "jack",
            "--variant",
            variant,
            "--checkpoint-interval",
            "3",
            "--kill-backup",
            "200000",
            "--crash-at",
            "400000",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{variant}: exit status\n{stderr}");
        assert!(
            stderr.contains("run lost: the primary crashed while no standby was live"),
            "{variant}: stderr was\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{variant}: must not panic\n{stderr}");
        assert!(!stdout.contains("took over"), "{variant}: no takeover happened\n{stdout}");
    }
}

/// Workload mode has no thread knob and no warm-backup flag: `--threads`
/// and `--warm` are usage errors there.
#[test]
fn threads_and_warm_are_usage_errors_in_workload_mode() {
    for args in [&["jack", "--threads", "2"][..], &["jack", "--warm"][..]] {
        let out = ftjvm_run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: ftjvm-run"), "{args:?}");
    }
}

/// Fleet mode keeps `--threads`: the slot scheduler's worker count.
#[test]
fn threads_schedules_fleet_slots() {
    let out = ftjvm_run(&["--fleet", "4", "--threads", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("pool: 2 threads"));
}
