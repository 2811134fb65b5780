//! Quickstart: train a user-specific SIFT model and classify genuine and
//! hijacked ECG windows.
//!
//! Run: `cargo run --release --example quickstart`

use ml::DetectorBackend;
use physio_sim::dataset::windows;
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::detector::Detector;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::snippet::Snippet;
use sift::trainer::train_for_subject;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let subjects = bank();
    println!(
        "subject bank: {} synthetic subjects (ages {}..{})",
        subjects.len(),
        subjects.iter().map(|s| s.age).min().unwrap(),
        subjects.iter().map(|s| s.age).max().unwrap()
    );

    // Train a model for subject 0, using the other 11 as donors.
    // (2 minutes of training data keeps the example fast; the paper —
    // and the bench harness — use Δ = 20 minutes.)
    let config = SiftConfig {
        train_s: 120.0,
        ..SiftConfig::default()
    };
    println!(
        "training a {} model for {} on {:.0} s of data…",
        Version::Simplified,
        subjects[0].name,
        config.train_s
    );
    let model = train_for_subject(&subjects, 0, Version::Simplified, &config, 42)?;
    println!(
        "trained: w ∈ R^{}, deployed model footprint {} bytes",
        model.svm().dim(),
        model.embedded().footprint_bytes()
    );

    // Deploy with the Amulet's single-precision arithmetic.
    let detector = Detector::new(model, PlatformFlavor::Amulet, config.clone())?;

    // Genuine windows: the wearer's own (unseen) ECG + ABP.
    let own = Record::synthesize(&subjects[0], 30.0, 31337);
    let mut pass = 0;
    let own_windows = windows(&own, config.window_s)?;
    for w in &own_windows {
        let d = detector.classify(&Snippet::from_record(w)?)?;
        pass += usize::from(!d.is_alert());
    }
    println!(
        "genuine windows accepted: {pass}/{} (false positives: {})",
        own_windows.len(),
        own_windows.len() - pass
    );

    // Hijacked windows: the wearer's ABP paired with subject 7's ECG.
    let donor = Record::synthesize(&subjects[7], 30.0, 99999);
    let donor_windows = windows(&donor, config.window_s)?;
    let mut caught = 0;
    for (vw, dw) in own_windows.iter().zip(&donor_windows) {
        let hijacked = Snippet::new(
            dw.ecg.clone(),
            vw.abp.clone(),
            dw.r_peaks.clone(),
            vw.sys_peaks.clone(),
        )?;
        let d = detector.classify(&hijacked)?;
        caught += usize::from(d.is_alert());
        if d.is_alert() {
            println!(
                "  window hijacked -> ALERT (score {:+.2})",
                d.score
            );
        }
    }
    println!(
        "hijacked windows detected: {caught}/{}",
        donor_windows.len()
    );
    Ok(())
}
