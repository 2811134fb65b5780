//! Attack-taxonomy evaluation: detection performance of the deployed
//! detector against each of the paper's four sensor-hijacking
//! vulnerability classes (§I), exercised end-to-end through the WIoT
//! environment (sensors → attacker → channel → Amulet base station).
//!
//! Run: `cargo run --release -p bench --bin attacks`
//!
//! With `--faults`, each attack additionally runs under a hostile link
//! (Gilbert–Elliott burst loss, ~10% mean) with the reliability stack
//! on (ARQ + salvage + watchdog); the table gains a window-recovery
//! column showing how much of the session still reached the detector.
//!
//! `--no-persist` disables FRAM checkpointing (the pre-checkpointing
//! behavior), for A/B comparison of the persistence layer's cost.

use bench::{Failure, Flags};
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::features::Version;
use std::process::ExitCode;
use wiot::campaign::AttackClass;
use wiot::channel::LossModel;
use wiot::scenario::{run as run_scenario, AttackSpec, Scenario};

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let flags = Flags::parse("attacks", "--faults --no-persist")?;
    let (faults_mode, no_persist) = (flags.switch("--faults"), flags.switch("--no-persist"));
    let duration_s = 120.0;
    let (attack_start, attack_end) = (33.0, 93.0);
    let donor = Record::synthesize(&bank()[7], duration_s, 0xD0);
    let victim_history = Record::synthesize(&bank()[0], duration_s, 0xC0FFEE ^ 0x11FE);

    // The paper's four attacks as campaign-taxonomy classes; each
    // run's `AttackMode` comes from `materialize`.
    let classes = [
        ("substitute (channel compromise)", AttackClass::Substitution),
        ("replay (firmware compromise)", AttackClass::Replay { offset_s: 20.0 }),
        ("freeze (physical compromise)", AttackClass::Freeze),
        ("noise-inject (sensory channel)", AttackClass::NoiseInject { amplitude_mv: 0.6 }),
    ];

    if faults_mode {
        println!(
            "attack taxonomy vs deployed detector (simplified version, amulet flavor, \
             bursty link + reliability stack)\n"
        );
        println!(
            "| {:<32} | {:>9} | {:>9} | {:>9} | {:>12} | {:>9} |",
            "Attack", "TP rate", "FP rate", "Acc", "Latency (ms)", "Recov"
        );
        println!("|{}|", "-".repeat(98));
    } else {
        println!("attack taxonomy vs deployed detector (simplified version, amulet flavor)\n");
        println!(
            "| {:<32} | {:>9} | {:>9} | {:>9} | {:>12} |",
            "Attack", "TP rate", "FP rate", "Acc", "Latency (ms)"
        );
        println!("|{}|", "-".repeat(86));
    }
    for (name, class) in classes {
        let mut scenario = Scenario::new(0, Version::Simplified, duration_s);
        scenario.persist = !no_persist;
        let window_ms = (scenario.config.window_s * 1000.0) as u64;
        scenario.attack = Some(AttackSpec {
            mode: class.materialize(&victim_history, &donor, window_ms),
            start_s: attack_start,
            end_s: attack_end,
        });
        if faults_mode {
            scenario.link.loss = Some(LossModel::GilbertElliott {
                p_good_to_bad: 0.025,
                p_bad_to_good: 0.2,
                loss_good: 0.01,
                loss_bad: 0.8,
            });
            scenario = scenario.with_reliability();
        }
        match run_scenario(&scenario) {
            Ok(r) => {
                let m = r.confusion;
                let tp_rate = m
                    .recall()
                    .map(|x| format!("{:.1}%", x * 100.0))
                    .unwrap_or_else(|| "-".into());
                let fp_rate = m
                    .false_positive_rate()
                    .map(|x| format!("{:.1}%", x * 100.0))
                    .unwrap_or_else(|| "-".into());
                let acc = m
                    .accuracy()
                    .map(|x| format!("{:.1}%", x * 100.0))
                    .unwrap_or_else(|| "-".into());
                let latency = r
                    .detection_latency_ms
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "missed".into());
                if faults_mode {
                    let recov = format!("{:.1}%", r.window_recovery_rate * 100.0);
                    println!(
                        "| {name:<32} | {tp_rate:>9} | {fp_rate:>9} | {acc:>9} | {latency:>12} | {recov:>9} |"
                    );
                } else {
                    println!(
                        "| {name:<32} | {tp_rate:>9} | {fp_rate:>9} | {acc:>9} | {latency:>12} |"
                    );
                }
            }
            Err(e) => println!("| {name:<32} | failed: {e}"),
        }
    }
    if faults_mode {
        println!(
            "\n(each run: 120 s session, attack active 33 s – 93 s, 0.5 s packets, \
             Gilbert–Elliott burst loss ~10% mean, ARQ + salvage + watchdog on)"
        );
    } else {
        println!(
            "\n(each run: 120 s session, attack active 33 s – 93 s, 0.5 s packets, \
             default lossy link)"
        );
    }
    Ok(())
}
