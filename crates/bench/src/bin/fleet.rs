//! Fleet-scale throughput bench: simulate N wearable devices across a
//! worker pool and report simulated device-seconds per wall-second.
//!
//! Run: `cargo run --release -p bench --bin fleet -- --devices 100
//! --threads 8 --seed 61455 --duration 30`
//!
//! Writes `results/BENCH_fleet.json` (override with `--out PATH`). The digest
//! field is deterministic for a given `--devices/--seed/--duration`
//! regardless of `--threads`; the wall-clock fields are not, which is
//! why `scripts/verify.sh` only warns on baseline drift.

use bench::{fleet_bench_json, write_artifact, Context, Failure, Flags, FleetBenchResult};
use physio_sim::subject::bank;
use sift::trainer::ModelBank;
use std::process::ExitCode;
use std::time::Instant;
use wiot::fleet::{run_fleet_with_bank, FleetSpec};

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let spec = "--devices N --threads N --seed N --duration SECONDS --out PATH";
    let flags = Flags::parse("fleet", spec)?;
    let devices = flags.get("--devices", 100)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = flags.get("--threads", cores)?;
    let seed = flags.get("--seed", 0xF1EE7)?;
    let duration_s = flags.get("--duration", 30.0)?;
    let out: String = flags.get("--out", "results/BENCH_fleet.json".into())?;
    let spec = FleetSpec::new(devices, duration_s).with_threads(threads).with_seed(seed);
    println!(
        "fleet bench: {devices} devices x {duration_s:.0} s on {threads} threads (seed {seed})"
    );

    let t0 = Instant::now();
    let models = ModelBank::train(&bank(), spec.template.version, &spec.template.config, spec.seed)
        .context("enrollment failed")?;
    let train_wall_s = t0.elapsed().as_secs_f64();
    println!(
        "enrolled {} subjects in {:.1} s (shared across all devices)",
        models.len(),
        train_wall_s
    );

    let t1 = Instant::now();
    let report = run_fleet_with_bank(&spec, &models).context("fleet run failed")?;
    let sim_wall_s = t1.elapsed().as_secs_f64();

    let result = FleetBenchResult {
        report,
        threads,
        duration_s,
        train_wall_s,
        sim_wall_s,
    };
    let rep = &result.report;
    println!(
        "simulated {:.0} device-seconds in {:.1} s wall -> {:.1} device-s/wall-s",
        rep.simulated_device_s,
        sim_wall_s,
        result.throughput()
    );
    println!(
        "windows scored {} (sink flagged {}), recovery {:.3}, outliers {}, digest {:#018x}",
        rep.windows_scored,
        rep.sink_flagged,
        rep.mean_window_recovery,
        rep.outliers.len(),
        rep.digest()
    );

    let json = fleet_bench_json(&result);
    write_artifact(&out, &json)?;
    println!("wrote {out}");
    Ok(())
}
