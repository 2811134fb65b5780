//! Crash-recovery soak: hammer a fleet with seeded random power cycles
//! (brownout reboots, torn checkpoint commits, FRAM bit rot) and verify
//! every device recovers from its FRAM checkpoint instead of losing its
//! enrollment, at every thread count.
//!
//! Run: `cargo run --release -p bench --bin recovery -- --devices 50
//! --cycles 20 --seed 61455 --duration 30`
//!
//! With the defaults this is 50 devices x ~20 power-cycle events, over
//! 1000 reboots fleet-wide. The gate fails (exit 1) if any device fails to recover, if
//! any recovery is missing, if the fleet stops scoring windows, or if
//! the report digest differs between the single-threaded and
//! multi-threaded runs.

use amulet_sim::nvram::{CheckpointStore, NVRAM_BYTES};
use bench::{enroll_fleet, fail, splitmix64, thread_gate, Context, Failure, Flags};
use std::process::ExitCode;
use std::time::Instant;
use wiot::faults::{FaultEvent, FaultKind, FaultPlan};
use wiot::fleet::{run_fleet_with_bank, FleetSpec};

/// Build the seeded random power-cycle schedule: mostly plain brownout
/// reboots, with torn commits (power fails mid-FRAM-write, at a random
/// byte offset of the commit sequence) and single-bit FRAM rot mixed
/// in. Event times land at arbitrary sub-tick offsets on purpose.
fn soak_plan(seed: u64, cycles: usize, duration_s: f64) -> FaultPlan {
    let commit_seq = CheckpointStore::commit_sequence_len(sift::checkpoint::encoded_len(
        sift::features::Version::Simplified,
    ));
    // The soak's only randomness source, so the whole plan is a pure
    // function of `--seed`.
    let mut state = seed ^ 0xC4A5_5E77_0F0F_1234;
    let mut plan = FaultPlan::new();
    for _ in 0..cycles {
        let frac = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let t = 0.9 + frac * (duration_s - 1.8);
        let kind = match splitmix64(&mut state) % 10 {
            // Power fails partway through a commit: every cut offset in
            // the sequence is fair game.
            0 | 1 => FaultKind::TornCheckpoint {
                cut_bytes: 1 + (splitmix64(&mut state) as usize) % commit_seq,
            },
            // A stray bit flip somewhere in the checkpoint region,
            // followed later by whatever reboot comes next.
            2 => FaultKind::CheckpointBitRot {
                byte: (splitmix64(&mut state) as usize) % NVRAM_BYTES,
                bit: (splitmix64(&mut state) % 8) as u8,
            },
            _ => FaultKind::DeviceReboot,
        };
        plan.push(FaultEvent {
            start_s: t,
            end_s: t,
            kind,
        });
    }
    plan
}

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let spec = "--devices N --cycles N --threads N --seed N --duration SECONDS";
    let flags = Flags::parse("recovery", spec)?;
    let devices = flags.get("--devices", 50)?;
    let cycles = flags.get("--cycles", 22)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = flags.get("--threads", cores)?;
    let seed = flags.get("--seed", 0x5EED_B007)?;
    let duration_s = flags.get("--duration", 30.0)?;
    let plan = soak_plan(seed, cycles, duration_s);
    let power_cycles = plan.events().iter()
        .filter(|e| matches!(e.kind, FaultKind::DeviceReboot | FaultKind::TornCheckpoint { .. }))
        .count();
    let mut spec = FleetSpec::new(devices, duration_s).with_seed(seed);
    spec.template.faults = plan;
    println!(
        "recovery soak: {devices} devices x {cycles} fault events \
         ({power_cycles} power cycles/device, {} fleet-wide), seed {seed}",
        power_cycles * devices,
    );

    let models = enroll_fleet(&spec)?;

    let t0 = Instant::now();
    let mut failures = Vec::new();
    let pass = |threads| {
        let report = run_fleet_with_bank(&spec.clone().with_threads(threads), &models)
            .context(format!("fleet run ({threads} threads) errored"))?;
        let f = &report.faults;
        println!(
            "  {threads:>2} threads: digest {:#018x}, reboots {}, recoveries {}, rollbacks {}, \
             failures {}, windows scored {}",
            report.digest(),
            f.reboots,
            f.recoveries,
            f.rollbacks,
            f.recovery_failures,
            report.windows_scored
        );
        if f.recovery_failures > 0 {
            let refused = f.recovery_failures;
            failures.push(format!("FAIL: {refused} recoveries were refused fleet-wide"));
        }
        if f.recoveries != f.reboots {
            failures.push(format!(
                "FAIL: {} reboots but only {} checkpoint recoveries",
                f.reboots, f.recoveries
            ));
        }
        if report.windows_scored == 0 {
            failures.push("FAIL: fleet stopped scoring windows under the soak".into());
        }
        for d in &report.per_device {
            if d.faults.recovery_failures > 0 || d.faults.recoveries != d.faults.reboots {
                failures.push(format!(
                    "FAIL: device {} not operational at exit: {:?}",
                    d.device, d.faults
                ));
            }
        }
        Ok(report)
    };
    if let Err(e) = thread_gate(&[1, threads.max(2)], |r| r.digest(), pass) {
        failures.push(format!("FAIL: {e}"));
    }
    println!(
        "soak finished in {:.1} s wall: {}",
        t0.elapsed().as_secs_f64(),
        if failures.is_empty() { "ok" } else { "FAIL" }
    );
    if failures.is_empty() {
        Ok(())
    } else {
        fail(failures.join("\n"))
    }
}
