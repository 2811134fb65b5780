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

use bench::{enroll_fleet, fleet_totals, write_artifact, Context, Failure, Flags, Json};
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
    let models = enroll_fleet(&spec)?;
    let train_wall_s = t0.elapsed().as_secs_f64();
    println!(
        "enrolled {} subjects in {:.1} s (shared across all devices)",
        models.len(),
        train_wall_s
    );

    let t1 = Instant::now();
    let report = run_fleet_with_bank(&spec, &models).context("fleet run failed")?;
    let sim_wall_s = t1.elapsed().as_secs_f64();

    let throughput = report.simulated_device_s / sim_wall_s;
    println!(
        "simulated {:.0} device-seconds in {:.1} s wall -> {:.1} device-s/wall-s",
        report.simulated_device_s, sim_wall_s, throughput
    );
    println!(
        "windows scored {} (sink flagged {}), recovery {:.3}, outliers {}, digest {:#018x}",
        report.windows_scored,
        report.sink_flagged,
        report.mean_window_recovery,
        report.outliers.len(),
        report.digest()
    );

    // The digest and the report totals are deterministic; the wall-clock
    // fields vary per machine, which is why the baseline diff in
    // `scripts/verify.sh` is warn-only.
    let head = [
        ("devices", Json::num(devices)),
        ("threads", Json::num(threads)),
        ("seed", Json::num(seed)),
        ("duration_s", Json::num(duration_s)),
        ("simulated_device_s", Json::num(report.simulated_device_s)),
        ("train_wall_s", Json::fixed(train_wall_s, 3)),
        ("sim_wall_s", Json::fixed(sim_wall_s, 3)),
        ("throughput_device_s_per_wall_s", Json::fixed(throughput, 1)),
        ("digest", Json::hex(report.digest())),
    ];
    let doc = Json::obj(head.into_iter().chain(fleet_totals(&report)));
    write_artifact(&out, &doc.render())?;
    println!("wrote {out}");
    Ok(())
}
