//! The recorded result tables are what the deterministic experiments
//! print today.
//!
//! E1–E8, E10, E13 and E14 run on fixed seeds and print no wall-clock
//! column, so each binary's stdout must equal `results/<bin>.txt` byte
//! for byte, and so must `zmail_trace --seed 7`'s report
//! (`results/zmail_trace_seed7.txt`). A failure names the first line
//! that differs. To re-record a table after a change that is meant to
//! move it, run the binary and redirect its stdout over the file:
//!
//! ```sh
//! cargo run --release -q -p zmail-bench --bin e3_misbehavior > results/e3_misbehavior.txt
//! ```

use std::path::Path;
use std::process::Command;

/// Runs the experiment binary at `exe` with `args` and compares its
/// stdout with `results/<name>.txt`.
fn check(name: &str, exe: &str, args: &[&str]) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .expect("experiment binary runs");
    assert!(
        output.status.success(),
        "{name} exited with {}",
        output.status
    );
    let printed = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.txt"));
    let recorded = std::fs::read_to_string(&path).expect("recorded table exists");
    if printed == recorded {
        return;
    }
    let mut printed_lines = printed.lines();
    let mut recorded_lines = recorded.lines();
    for line in 1.. {
        let (now, then) = (printed_lines.next(), recorded_lines.next());
        assert_eq!(
            now, then,
            "{name} line {line} differs from results/{name}.txt (left: printed, right: recorded)"
        );
        if now.is_none() {
            break;
        }
    }
    panic!("{name} differs from results/{name}.txt in line endings only");
}

macro_rules! pinned {
    ($($test:ident => $bin:literal,)*) => {$(
        #[test]
        fn $test() {
            check($bin, env!(concat!("CARGO_BIN_EXE_", $bin)), &[]);
        }
    )*};
}

pinned! {
    e1 => "e1_spammer_economics",
    e2 => "e2_zero_sum",
    e3 => "e3_misbehavior",
    e4 => "e4_mailing_lists",
    e5 => "e5_zombies",
    e6 => "e6_deployment",
    e7 => "e7_payment_overhead",
    e8 => "e8_filter_comparison",
    e10 => "e10_spam_share",
    e13 => "e13_lossy_network",
    e14 => "e14_federated_banks",
}

/// The flight-recorder report of the seed the verify notes drive.
#[test]
fn zmail_trace_seed_7() {
    check(
        "zmail_trace_seed7",
        env!("CARGO_BIN_EXE_zmail_trace"),
        &["--seed", "7"],
    );
}
