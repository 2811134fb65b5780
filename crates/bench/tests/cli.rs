//! Every bench binary checks its command line before it runs: an unknown
//! flag prints the binary's usage line, exits 2 and writes nothing.

use std::process::Command;

const BINS: [(&str, &str); 14] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("attacks", env!("CARGO_BIN_EXE_attacks")),
    ("campaign", env!("CARGO_BIN_EXE_campaign")),
    ("detector_zoo", env!("CARGO_BIN_EXE_detector_zoo")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fleet", env!("CARGO_BIN_EXE_fleet")),
    ("fleet_xl", env!("CARGO_BIN_EXE_fleet_xl")),
    ("lifetime", env!("CARGO_BIN_EXE_lifetime")),
    ("recovery", env!("CARGO_BIN_EXE_recovery")),
    ("roc", env!("CARGO_BIN_EXE_roc")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("telemetry", env!("CARGO_BIN_EXE_telemetry")),
];

#[test]
fn unknown_flag_exits_2_with_usage_and_writes_nothing() {
    for (name, exe) in BINS {
        let cwd = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli").join(name);
        let _ = std::fs::remove_dir_all(&cwd);
        std::fs::create_dir_all(&cwd).unwrap();
        let out = Command::new(exe).arg("--no-such-flag").current_dir(&cwd).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag --no-such-flag; usage: {name}")), "{name}: {stderr}");
        assert_eq!(std::fs::read_dir(&cwd).unwrap().count(), 0, "{name} wrote into {cwd:?}");
    }
}

#[test]
fn degenerate_fleet_duration_exits_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--devices", "1", "--duration", "inf"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("session length must be finite and positive"), "{stderr}");
}
