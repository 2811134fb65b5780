//! Table I reproduction: the feature inventory of the three detector
//! versions, evaluated on a genuine and an altered portrait so the
//! discriminative signal is visible.
//!
//! Run: `cargo run --release -p bench --bin table1`

use bench::{Failure, Flags};
use physio_sim::dataset::windows;
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::{extract, Version};
use sift::snippet::Snippet;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    Flags::parse("table1", "")?;
    let subjects = bank();
    let config = SiftConfig::default();

    // A genuine window of subject 0 …
    let own = Record::synthesize(&subjects[0], 30.0, 2001);
    let own_w = &windows(&own, config.window_s).unwrap()[2];
    let genuine = Snippet::from_record(own_w).unwrap();

    // … and the same ABP paired with subject 6's ECG (sensor hijacked).
    let donor = Record::synthesize(&subjects[6], 30.0, 2002);
    let donor_w = &windows(&donor, config.window_s).unwrap()[2];
    let altered = Snippet::new(
        donor_w.ecg.clone(),
        own_w.abp.clone(),
        donor_w.r_peaks.clone(),
        own_w.sys_peaks.clone(),
    )
    .unwrap();

    println!("TABLE I: feature summary (computed on one genuine and one altered 3 s portrait)\n");
    for version in Version::ALL {
        let g = extract(version, &genuine, &config).unwrap();
        let a = extract(version, &altered, &config).unwrap();
        println!("=== {version} version ({} features) ===", version.feature_count());
        println!(
            "| {:<48} | {:>12} | {:>12} |",
            "Feature", "genuine", "altered"
        );
        println!("|{}|", "-".repeat(80));
        for ((name, gv), av) in version.feature_names().iter().zip(&g).zip(&a) {
            println!("| {name:<48} | {gv:>12.6} | {av:>12.6} |");
        }
        println!();
    }
    Ok(())
}
