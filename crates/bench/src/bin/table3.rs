//! Table III reproduction: resource usage of the three detector
//! versions — FRAM (system + detector), peak SRAM (system + detector),
//! and expected battery lifetime with the 110 mAh battery.
//!
//! All numbers are *derived* from the platform model: footprints from
//! the profiler's composition of code/buffers/model constants and
//! library linkage, lifetimes from the per-operation cycle model and the
//! component-current energy model.
//!
//! Run: `cargo run --release -p bench --bin table3`

use amulet_sim::profiler::{sift_app_spec, ResourceProfiler};
use bench::{Failure, Flags};
use sift::config::SiftConfig;
use sift::features::Version;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    Flags::parse("table3", "")?;
    let config = SiftConfig::default();
    let profiler = ResourceProfiler::default();

    println!("TABLE III reproduction: resource usage of the three detector versions\n");
    println!(
        "| {:<10} | {:<24} | {:<42} |",
        "Version", "Resource Type", "Measurement"
    );
    println!("|{}|", "-".repeat(84));
    for version in Version::ALL {
        let model_bytes = ml::embedded::encoded_len(version.feature_count());
        let spec = sift_app_spec(version, &config, model_bytes);
        let profile = profiler.profile(&[&spec]);
        let kb = |b: usize| b as f64 / 1024.0;
        println!(
            "| {:<10} | {:<24} | {:>8.2} KB (system) + {:>5.2} KB (detector)  |",
            version.to_string(),
            "Memory Use (FRAM)",
            kb(profile.system_fram_bytes),
            kb(profile.app_fram_bytes),
        );
        println!(
            "| {:<10} | {:<24} | {:>8} B  (system) + {:>5} B  (detector)  |",
            "",
            "Max RAM Use (SRAM)",
            profile.system_sram_bytes,
            profile.app_sram_bytes,
        );
        println!(
            "| {:<10} | {:<24} | {:>8.0} days ({:.1} uA avg current){:<8} |",
            "",
            "Expected Lifetime",
            profile.lifetime_days,
            profile.avg_current_ua,
            "",
        );
        println!("|{}|", "-".repeat(84));
    }
    println!(
        "\npaper reference (Table III):\n\
         | original   | FRAM 77.03 KB + 4.79 KB | SRAM 696 B + 259 B | 23 days |\n\
         | simplified | FRAM 71.58 KB + 4.02 KB | SRAM 694 B + 259 B | 26 days |\n\
         | reduced    | FRAM 56.29 KB + 2.56 KB | SRAM 694 B +  69 B | 55 days |"
    );
    Ok(())
}
