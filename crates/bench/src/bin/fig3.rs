//! Figure 3 reproduction: the ARP-view resource-consumption snapshot of
//! the SIFT detector app, including the battery-life "sliders" (the
//! parameter sweeps ARP-view exposes to developers).
//!
//! Run: `cargo run --release -p bench --bin fig3`

use amulet_sim::costs::{detector_cycles, OpCosts};
use amulet_sim::profiler::{sift_app_spec, ResourceProfiler};
use amulet_sim::CPU_HZ;
use bench::{Failure, Flags};
use sift::config::SiftConfig;
use sift::features::Version;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    Flags::parse("fig3", "")?;
    let config = SiftConfig::default();
    let profiler = ResourceProfiler::default();
    let original_model_bytes = ml::embedded::encoded_len(Version::Original.feature_count());
    let spec = sift_app_spec(Version::Original, &config, original_model_bytes);

    println!("FIGURE 3 reproduction: ARP-view snapshot of the SIFT app (original version)\n");
    print!("{}", profiler.arp_view(&[&spec]));

    // Per-state energy breakdown (the pie of the snapshot).
    let cycles = detector_cycles(Version::Original, &config, &OpCosts::default(), 4.0);
    let total = cycles.total();
    println!("\nper-state execution breakdown (one 3 s window):");
    for (state, c) in [
        ("PeaksDataCheck", cycles.peaks_data_check),
        ("FeatureExtraction", cycles.feature_extraction),
        ("MLClassifier", cycles.ml_classifier),
    ] {
        println!(
            "  {:<18} {:>10.0} cycles  {:>6.1} ms  {:>5.1}%",
            state,
            c,
            c / CPU_HZ * 1000.0,
            c / total * 100.0
        );
    }

    // ARP-view sliders: wake-period sweep per version.
    println!("\nslider: detection period vs expected lifetime (days)");
    let periods = [1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 60.0];
    print!("{:<12}", "period (s)");
    for p in periods {
        print!("{p:>8.0}");
    }
    println!();
    for version in Version::ALL {
        let model_bytes = ml::embedded::encoded_len(version.feature_count());
        let vspec = sift_app_spec(version, &config, model_bytes);
        print!("{:<12}", version.to_string());
        for (_, days) in profiler.lifetime_vs_period(&vspec, &periods) {
            print!("{days:>8.0}");
        }
        println!();
    }

    // Second slider: grid size vs lifetime (original version), showing
    // the cost of the matrix features.
    println!("\nslider: grid size n vs expected lifetime (original version)");
    for n in [10usize, 25, 50, 75, 100] {
        let cfg = SiftConfig {
            grid_n: n,
            ..config.clone()
        };
        let s = sift_app_spec(Version::Original, &cfg, original_model_bytes);
        let p = profiler.profile(&[&s]);
        println!(
            "  n = {n:>3}: {:>6.1} ms/window, {:>5.0} days",
            s.cycles_per_period / CPU_HZ * 1000.0,
            p.lifetime_days
        );
    }
    Ok(())
}
