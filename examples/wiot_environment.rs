//! The full WIoT environment of the paper's Fig. 1, end to end: body
//! sensors stream over a lossy wireless link to the Amulet base station;
//! mid-session an adversary hijacks the ECG channel and substitutes
//! another person's waveform; the SIFT app detects the alteration and
//! alerts; the sink archives everything.
//!
//! Run: `cargo run --release --example wiot_environment`
//!
//! With `--faults`, the session instead runs in a hostile environment:
//! Gilbert–Elliott burst loss, a timed fault plan (sensor dropout, a
//! stuck ABP cuff, a base-station brownout, ECG clock drift), ARQ on
//! the links, partial-window salvage, and the stream watchdog.
//!
//! Run: `cargo run --release --example wiot_environment -- --faults`
//!
//! `--no-persist` disables FRAM checkpointing: a brownout reboot then
//! loses the detector state instead of recovering it (the pre-
//! checkpointing behavior, kept as an escape hatch and for A/B runs).

use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::features::Version;
use wiot::attacker::{AttackClass, AttackMode};
use wiot::channel::LossModel;
use wiot::device::Stream;
use wiot::faults::{FaultEvent, FaultKind, FaultPlan};
use wiot::scenario::{run, AttackSpec, LinkParams, Scenario, SimReport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let faults_mode = std::env::args().any(|a| a == "--faults");
    let no_persist = std::env::args().any(|a| a == "--no-persist");
    let subjects = bank();
    let victim = 0;
    let donor_subject = 6;
    let duration_s = 120.0;

    println!("WIoT environment (Fig. 1 realized):");
    println!("  wearer      : {} (age {})", subjects[victim].name, subjects[victim].age);
    println!("  sensors     : ECG + ABP @ 360 Hz, 0.5 s packets");
    println!("  base station: Amulet (MSP430FR5989-class), SIFT simplified + heart-rate app");
    println!("  adversary   : substitutes {}'s ECG during t = 30 s … 90 s", subjects[donor_subject].name);

    let donor = Record::synthesize(&subjects[donor_subject], duration_s, 777);
    let mut scenario = Scenario::new(victim, Version::Simplified, duration_s);
    if no_persist {
        println!("  persistence : OFF (reboots lose detector state)");
        scenario.persist = false;
    }
    scenario.attack = Some(AttackSpec {
        mode: AttackMode::new(AttackClass::Substitution, Some((&donor).into()), 0),
        start_s: 30.0,
        end_s: 90.0,
    });

    if faults_mode {
        println!("  link        : Gilbert–Elliott burst loss (~10% mean), 5 ms ± 3 ms delay, ARQ on");
        println!("  faults      : ABP dropout 40–50 s, ABP stuck 60–70 s, brownout @ 75 s, ECG drift 80–100 s\n");
        scenario.link.loss = Some(LossModel::GilbertElliott {
            p_good_to_bad: 0.025,
            p_bad_to_good: 0.2,
            loss_good: 0.01,
            loss_bad: 0.8,
        });
        scenario.faults = FaultPlan::new()
            .with(FaultEvent {
                start_s: 40.0,
                end_s: 50.0,
                kind: FaultKind::SensorDropout { stream: Stream::Abp },
            })
            .with(FaultEvent {
                start_s: 60.0,
                end_s: 70.0,
                kind: FaultKind::SensorStuck { stream: Stream::Abp },
            })
            .with(FaultEvent {
                start_s: 75.0,
                end_s: 75.0,
                kind: FaultKind::DeviceReboot,
            })
            .with(FaultEvent {
                start_s: 80.0,
                end_s: 100.0,
                kind: FaultKind::ClockDrift { stream: Stream::Ecg, ppm: 20_000.0 },
            });
        scenario = scenario.with_reliability();
    } else {
        println!("  link        : 2% loss, 5 ms ± 3 ms delay\n");
        scenario.link = LinkParams {
            loss_prob: 0.02,
            base_delay_ms: 5,
            jitter_ms: 3,
            ..LinkParams::default()
        };
    }

    let report = run(&scenario)?;
    print_report(&report);
    if faults_mode {
        print_fault_sections(&report);
    }

    println!("\nsink archive ({} alerts):", report.sink.alerts().len());
    for a in report.sink.alerts().iter().take(8) {
        println!("  [{:>6} ms] {}: {}", a.at_ms, a.app, a.message);
    }
    if report.sink.alerts().len() > 8 {
        println!("  … and {} more", report.sink.alerts().len() - 8);
    }
    Ok(())
}

fn print_report(report: &SimReport) {
    println!("session complete:");
    println!("  windows scored        : {}", report.confusion.total());
    println!("  windows dropped (loss): {}", report.dropped_windows);
    println!("  windows salvaged      : {}", report.salvaged_windows);
    println!("  window recovery rate  : {:.1}%", report.window_recovery_rate * 100.0);
    println!("  partially-attacked    : {} (excluded from scoring)", report.ambiguous_windows);
    println!("  confusion             : {}", report.confusion);
    if let Some(acc) = report.confusion.accuracy() {
        println!("  accuracy              : {:.1}%", acc * 100.0);
    }
    match report.detection_latency_ms {
        Some(l) => println!("  detection latency     : {:.1} s after attack start", l as f64 / 1000.0),
        None => println!("  detection latency     : attack was never flagged!"),
    }
    println!("  battery remaining     : {:.3}%", report.battery_left * 100.0);
}

fn print_fault_sections(report: &SimReport) {
    let c = &report.channel;
    println!("\nchannel ({} sent):", c.sent);
    println!("  lost {} ({:.1}%), duplicated {}, reordered {}, corrupted {}",
        c.lost, report.channel_loss_rate * 100.0, c.duplicated, c.reordered, c.corrupted);
    if let Some(t) = &report.transport {
        println!("transport (ARQ):");
        println!("  retransmits {}, nacks {}, gap recoveries {}, give-ups {}, dup-discards {}",
            t.retransmits, t.nacks_sent, t.gap_recoveries, t.give_ups, t.duplicates_discarded);
    }
    let f = &report.faults;
    println!("faults injected:");
    println!("  dropout chunks {}, stuck chunks {}, reboots {}, degraded link {} ms, max clock skew {} ms",
        f.dropout_chunks, f.stuck_chunks, f.reboots, f.degraded_link_ms, f.max_clock_skew_ms);
    println!("checkpointing:");
    println!("  recoveries {}, rollbacks {}, torn commits {}, bit flips {}, refused {}",
        f.recoveries, f.rollbacks, f.torn_commits, f.bitrot_flips, f.recovery_failures);
    println!("  stream-stalled alerts : {}", report.stall_alerts);
}
