//! Fleet simulation in a few lines: enroll the subject bank once, shard
//! a dozen simulated devices across two worker threads, and show that
//! the aggregate report is identical at any thread count — including
//! with the per-device survival policy switched on and actively
//! degrading every device down the ladder.
//!
//! Run: `cargo run --release --example fleet_sim`

use physio_sim::subject::bank;
use sift::trainer::ModelBank;
use wiot::fleet::{run_fleet_with_bank, FleetSpec};
use wiot::survival::SurvivalConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = FleetSpec::new(12, 30.0).with_threads(2).with_seed(2024);

    // Enrollment happens once, on the main thread; every device wearing
    // subject `s` shares the same immutable model.
    let models = ModelBank::train(
        &bank(),
        spec.template.version,
        &spec.template.config,
        spec.seed,
    )?;
    println!("enrolled {} subjects", models.len());

    let report = run_fleet_with_bank(&spec, &models)?;
    println!(
        "{} devices, {:.0} simulated device-seconds",
        report.devices, report.simulated_device_s
    );
    println!(
        "windows: {} scored at the sink, {} dropped, recovery {:.3}",
        report.windows_scored, report.dropped_windows, report.mean_window_recovery
    );
    println!(
        "energy: mean battery left {:.4}, {} dispatches fleet-wide",
        report.usage.mean_battery_left(),
        report.usage.dispatched
    );
    for o in &report.outliers {
        println!(
            "outlier: device {} (subject {}): {} ({:.3})",
            o.device, o.victim, o.reason, o.value
        );
    }

    // Determinism under parallelism: same seed, eight threads — the
    // report digests match bit for bit.
    let wide = run_fleet_with_bank(&spec.clone().with_threads(8), &models)?;
    assert_eq!(report.digest(), wide.digest());
    println!("digest {:#018x} (identical at 2 and 8 threads)", report.digest());

    // Same fleet with the survival policy on and the batteries drained
    // 120 000x faster than real time: every device walks the
    // degradation ladder, and the digest is still thread-schedule-free.
    let mut surviving = spec.clone();
    surviving.template.survival = Some(SurvivalConfig {
        min_dwell_ticks: 5,
        drain_scale: 120_000,
    });
    let stressed = run_fleet_with_bank(&surviving, &models)?;
    let again = run_fleet_with_bank(&surviving.clone().with_threads(8), &models)?;
    assert_eq!(stressed.digest(), again.digest());
    println!(
        "survival fleet: {} chunks duty-skipped, {} device-seconds under low battery, \
         digest {:#018x} (identical at 2 and 8 threads)",
        stressed.faults.duty_skipped_chunks,
        stressed.faults.low_battery_ticks,
        stressed.digest()
    );
    Ok(())
}
