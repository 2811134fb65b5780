//! Gallery of sensor-hijacking attacks (the paper's four vulnerability
//! classes, §I) staged against the deployed detector through the WIoT
//! environment.
//!
//! Run: `cargo run --release --example attack_gallery`

use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::features::Version;
use wiot::attacker::AttackClass;
use wiot::scenario::{run, AttackSpec, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let duration_s = 60.0;
    let donor = Record::synthesize(&bank()[5], duration_s, 2);
    let victim_history = Record::synthesize(&bank()[0], duration_s, 0xC0FFEE ^ 0x11FE);

    let gallery = [
        (
            "substitution",
            "communication-channel compromise: another person's ECG is injected",
            AttackClass::Substitution,
        ),
        (
            "replay",
            "firmware compromise: the wearer's own ECG from 15 s ago is replayed",
            AttackClass::Replay { offset_s: 15.0 },
        ),
        (
            "freeze",
            "physical compromise: the sensor output is stuck at its last value",
            AttackClass::Freeze,
        ),
        (
            "noise injection",
            "sensory-channel attack: EMI-style interference rides on the waveform",
            AttackClass::NoiseInject { amplitude_mv: 0.6 },
        ),
    ];

    for (name, description, class) in gallery {
        println!("=== {name} ===");
        println!("    {description}");
        let mut scenario = Scenario::new(0, Version::Simplified, duration_s);
        let window_ms = (scenario.config.window_s * 1000.0) as u64;
        scenario.attack = Some(AttackSpec {
            mode: class.materialize(&victim_history, &donor, window_ms),
            start_s: 24.0,
            end_s: 48.0,
        });
        let r = run(&scenario)?;
        let m = r.confusion;
        println!(
            "    attacked windows flagged : {}/{}",
            m.tp,
            m.tp + m.fn_
        );
        println!(
            "    clean windows passed     : {}/{}",
            m.tn,
            m.tn + m.fp
        );
        match r.detection_latency_ms {
            Some(l) => println!("    first alert              : {:.1} s after attack onset", l as f64 / 1000.0),
            None => println!("    first alert              : MISSED"),
        }
        println!();
    }
    Ok(())
}
