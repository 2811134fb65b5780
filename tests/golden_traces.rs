//! Golden-trace regression tests: seeded end-to-end runs pinned to
//! committed fixtures under `tests/golden/`.
//!
//! A golden trace freezes the externally observable behaviour of a
//! seeded run — the per-window verdict sequence of a device session and
//! the digest of a fleet run — so any change to the pipeline that moves
//! a verdict or a single aggregate bit fails loudly here, with a diff,
//! instead of silently shifting downstream numbers.
//!
//! To regenerate after an *intended* behaviour change:
//!
//! ```sh
//! BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;
use wiot::attacker::{AttackClass, AttackMode};
use wiot::basestation::WindowOutcome;
use wiot::fleet::{run_fleet_with_bank, FleetSpec};
use wiot::scenario::{AttackSpec, DeviceSim, Scenario};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the committed fixture, or rewrite the
/// fixture when `BLESS` is set in the environment.
///
/// Blessing is gated on the analyzer's determinism and call-graph
/// passes: a tree that uses `HashMap`, wall clocks, or stray threads on
/// report paths cannot prove the trace it is about to freeze is
/// reproducible, and one whose embedded entry points reach panics,
/// recursion, or dynamic dispatch must not certify new behaviour, so
/// the regeneration refuses until the violations are fixed.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let violations = analyzer::gate_findings(&root)
            .unwrap_or_else(|e| panic!("cannot run analyzer gate before blessing: {e}"));
        assert!(
            violations.is_empty(),
            "refusing to bless {name}: the determinism/call-graph passes have violations — \
             fix these (or lint:allow them with a reason) before regenerating golden traces:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot bless {name}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {name}; run `BLESS=1 cargo test --test golden_traces`")
    });
    assert_eq!(
        expected, actual,
        "golden trace {name} drifted; if the change is intended, regenerate with \
         `BLESS=1 cargo test --test golden_traces` and review the fixture diff"
    );
}

/// One character per window: e/E emitted (alert uppercase), s/S
/// salvaged, d dropped.
fn outcome_tag(outcome: WindowOutcome) -> char {
    match outcome {
        WindowOutcome::Emitted { alerted: false } => 'e',
        WindowOutcome::Emitted { alerted: true } => 'E',
        WindowOutcome::Salvaged { alerted: false } => 's',
        WindowOutcome::Salvaged { alerted: true } => 'S',
        WindowOutcome::Dropped => 'd',
    }
}

fn trace_of(scenario: &Scenario, header: &str) -> String {
    let mut sim = DeviceSim::new(scenario).unwrap();
    sim.run_to_completion().unwrap();
    let mut out = String::new();
    writeln!(out, "{header}").unwrap();
    writeln!(
        out,
        "victim={} version={} duration_s={} seed={:#x}",
        scenario.victim, scenario.version, scenario.duration_s, scenario.seed
    )
    .unwrap();
    for &(idx, outcome) in sim.window_log() {
        writeln!(out, "{idx} {}", outcome_tag(outcome)).unwrap();
    }
    out
}

#[test]
fn golden_quiet_session_verdicts() {
    let scenario = Scenario::new(3, sift::features::Version::Simplified, 60.0);
    check_golden(
        "quiet_session.trace",
        &trace_of(&scenario, "# quiet session: no attack, perfect link"),
    );
}

#[test]
fn golden_attacked_lossy_session_verdicts() {
    let donor = physio_sim::record::Record::synthesize(&physio_sim::subject::bank()[5], 60.0, 4242);
    let mut scenario = Scenario::new(0, sift::features::Version::Simplified, 60.0);
    scenario.attack = Some(AttackSpec {
        mode: AttackMode::new(AttackClass::Substitution, Some((&donor).into()), 0),
        start_s: 21.0,
        end_s: 45.0,
    });
    scenario.link.loss_prob = 0.05;
    scenario.salvage_max_missing = Some(1);
    check_golden(
        "attacked_lossy_session.trace",
        &trace_of(
            &scenario,
            "# substitution attack 21-45 s, 5% loss, salvage <= 1 chunk",
        ),
    );
}

/// The same externally-pinned contract for the second detector family:
/// a Tsetlin-backed session under a substitution attack, frozen so a
/// change to booleanization, clause voting, or the codec that moves a
/// single verdict fails here with a diff.
#[test]
fn golden_tsetlin_session_verdicts() {
    let donor = physio_sim::record::Record::synthesize(&physio_sim::subject::bank()[5], 60.0, 4242);
    let mut scenario = Scenario::new(0, sift::features::Version::Simplified, 60.0);
    scenario.backend = ml::BackendKind::Tsetlin;
    scenario.attack = Some(AttackSpec {
        mode: AttackMode::new(AttackClass::Substitution, Some((&donor).into()), 0),
        start_s: 21.0,
        end_s: 45.0,
    });
    check_golden(
        "tsetlin_session.trace",
        &trace_of(
            &scenario,
            "# tsetlin backend: substitution attack 21-45 s, perfect link",
        ),
    );
}

/// A session whose base station browns out twice, tears one checkpoint
/// commit mid-FRAM-write, and takes a bit flip in the checkpoint region
/// — pinned so the recovery path's externally visible behaviour (the
/// verdict sequence *and* the recovery counters) cannot drift silently.
#[test]
fn golden_reboot_recovery_session_verdicts() {
    use wiot::faults::{FaultEvent, FaultKind, FaultPlan};

    let payload = sift::checkpoint::encoded_len(sift::features::Version::Simplified);
    let seq = amulet_sim::nvram::CheckpointStore::commit_sequence_len(payload);
    let mut scenario = Scenario::new(2, sift::features::Version::Simplified, 60.0);
    scenario.faults = FaultPlan::new()
        .with(FaultEvent {
            start_s: 4.5,
            end_s: 4.5,
            kind: FaultKind::DeviceReboot,
        })
        .with(FaultEvent {
            start_s: 21.0,
            end_s: 21.0,
            // Power fails inside the commit's header write: the torn
            // slot must be detected and rolled back on reboot.
            kind: FaultKind::TornCheckpoint { cut_bytes: seq - 6 },
        })
        .with(FaultEvent {
            start_s: 30.25,
            end_s: 30.25,
            kind: FaultKind::CheckpointBitRot { byte: 100, bit: 3 },
        })
        .with(FaultEvent {
            start_s: 33.0,
            end_s: 33.0,
            kind: FaultKind::DeviceReboot,
        });

    let mut sim = DeviceSim::new(&scenario).unwrap();
    sim.run_to_completion().unwrap();
    let mut out = String::new();
    writeln!(
        out,
        "# reboot recovery: brownouts @ 4.5 s + 33 s, torn commit @ 21 s, bit rot @ 30.25 s"
    )
    .unwrap();
    writeln!(
        out,
        "victim={} version={} duration_s={} seed={:#x}",
        scenario.victim, scenario.version, scenario.duration_s, scenario.seed
    )
    .unwrap();
    for &(idx, outcome) in sim.window_log() {
        writeln!(out, "{idx} {}", outcome_tag(outcome)).unwrap();
    }
    let f = sim.fault_summary();
    writeln!(
        out,
        "faults reboots={} recoveries={} rollbacks={} torn={} bitrot={} refused={}",
        f.reboots, f.recoveries, f.rollbacks, f.torn_commits, f.bitrot_flips, f.recovery_failures
    )
    .unwrap();
    check_golden("reboot_recovery_session.trace", &out);
}

/// The survival policy's closed loop inside a live session (the
/// `adaptive_security` example's second act): an accelerated battery
/// walks the policy down the version, duty and retry ladders, pinned so
/// a change to the draw-current table, the policy, or its sensors that
/// moves a single actuation fails here with a diff.
#[test]
fn golden_survival_session() {
    use wiot::survival::SurvivalConfig;

    let mut scenario = Scenario::new(0, sift::features::Version::Original, 60.0).with_reliability();
    scenario.survival = Some(SurvivalConfig {
        min_dwell_ticks: 5,
        drain_scale: 60_000,
    });
    let mut sim = DeviceSim::new(&scenario).unwrap();
    sim.run_to_completion().unwrap();
    // FNV-1a over the verdict sequence.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &(idx, outcome) in sim.window_log() {
        for b in (idx as u64)
            .to_le_bytes()
            .into_iter()
            .chain([outcome_tag(outcome) as u8])
        {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let report = sim.into_report().unwrap();
    let sr = report.survival.unwrap();
    let mut out = String::new();
    writeln!(
        out,
        "# survival closed loop: reliability link, min_dwell_ticks 5, drain_scale 60000"
    )
    .unwrap();
    writeln!(
        out,
        "victim={} version={} duration_s={} seed={:#x}",
        scenario.victim, scenario.version, scenario.duration_s, scenario.seed
    )
    .unwrap();
    for action in &sr.actions {
        writeln!(out, "{action:?}").unwrap();
    }
    writeln!(out, "occupancy={:?}", sr.occupancy_ticks).unwrap();
    writeln!(
        out,
        "cutoff_at_ms={:?} final_version={} final_soc_permille={}",
        sr.cutoff_at_ms, sr.final_version, sr.final_soc_permille
    )
    .unwrap();
    let c = &report.confusion;
    writeln!(
        out,
        "confusion tp={} fp={} tn={} fn={}",
        c.tp, c.fp, c.tn, c.fn_
    )
    .unwrap();
    writeln!(out, "verdict_digest={digest:#018x}").unwrap();
    check_golden("survival_session.trace", &out);
}

#[test]
fn golden_fleet_digest() {
    let spec = FleetSpec::new(6, 12.0).with_threads(2).with_seed(2024);
    let models = sift::trainer::ModelBank::train(
        &physio_sim::subject::bank(),
        spec.template.version,
        &spec.template.config,
        spec.seed,
    )
    .unwrap();
    let report = run_fleet_with_bank(&spec, &models).unwrap();
    let mut out = String::new();
    writeln!(out, "# fleet aggregate pin: 6 devices, seed 2024, 12 s").unwrap();
    writeln!(out, "digest={:#018x}", report.digest()).unwrap();
    writeln!(
        out,
        "windows_scored={} sink_flagged={} dropped={} salvaged={}",
        report.windows_scored, report.sink_flagged, report.dropped_windows, report.salvaged_windows
    )
    .unwrap();
    writeln!(
        out,
        "confusion tp={} fp={} tn={} fn={}",
        report.confusion.tp, report.confusion.fp, report.confusion.tn, report.confusion.fn_
    )
    .unwrap();
    writeln!(out, "dispatched={}", report.usage.dispatched).unwrap();
    check_golden("fleet_digest.trace", &out);
}
