//! Fleet-scale lifetime bench for the survival policy: full charge to
//! battery cutoff for ≥200 devices under bursty Gilbert–Elliott link
//! stress and brownout reboots, comparing three deployment policies —
//! always-Original, always-Reduced, and the adaptive closed loop
//! (`wiot::survival`).
//!
//! Run: `cargo run --release -p bench --bin lifetime -- --devices 200
//! --seed 61455`
//!
//! Three parts, all deterministic:
//!
//! 1. **Fast-forward lifetime sweep** — each device's discharge curve is
//!    integrated in pure integer arithmetic at a 60 s tick by the
//!    battery loop the scenario layer runs (`wiot::adaptive::BatteryLoop`):
//!    every tick drains at the posture in force, then steps the policy
//!    on the charge left. A per-device Gilbert–Elliott badness chain
//!    feeds the link sensor, and seeded brownouts exercise the policy's
//!    snapshot/restore path (any round-trip mismatch fails the bench).
//!    The static policies are loops that are drained and never stepped.
//!    Reports p5/p50/p95 lifetime per policy, the adaptive ladder's
//!    occupancy and the windows its duty cycle skipped.
//! 2. **Accuracy tradeoff** — per-version detection accuracy from the
//!    three Amulet cells of Table II (`bench::run_table2`; the Gold
//!    cells are not evaluated), weighted by the adaptive policy's
//!    version occupancy. Duty-cycle skips cost *coverage*, not
//!    per-window accuracy, and are reported separately.
//! 3. **Digest stability** — a survival-enabled stressed mini-fleet run
//!    at 1, 2, and 8 threads; the digest must be identical (this is the
//!    grep-able `"digest"` field `scripts/verify.sh` gates on).
//!
//! Hard gates (exit 1): adaptive median lifetime ≥ 1.5× always-Original
//! with ≤ 2 pp occupancy-weighted accuracy loss; always-Reduced within
//! [1.7×, 2.6×] of always-Original (the paper's ≈2× headline); zero
//! snapshot mismatches; thread-count-identical digest.
//!
//! Writes `results/BENCH_lifetime.json` (override with `--out PATH`).

use amulet_sim::energy::EnergyModel;
use bench::{
    enroll_fleet, fail, percentile, run_table2, splitmix64, thread_gate, write_artifact, Context,
    Failure, Flags, Json, Scale, Sweep,
};
use ml::BackendKind;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use std::process::ExitCode;
use wiot::adaptive::{BatteryLoop, DrawTable};
use wiot::channel::LossModel;
use wiot::fleet::{run_fleet_with_bank, FleetReport, FleetSpec};
use wiot::survival::{SurvivalConfig, SurvivalPolicy};

/// Simulated seconds per fast-forward tick. The policy was designed for
/// 1 Hz ticks in the scenario layer; at whole-battery scale a 60 s tick
/// keeps every dwell/hysteresis mechanism engaged while finishing the
/// sweep in milliseconds.
const TICK_S: u64 = 60;
/// Hard cap on simulated ticks per device (≈ 104 days), a runaway stop.
const MAX_TICKS: u32 = 150_000;

/// One independent SplitMix64 stream per (device, purpose), keyed the
/// way the fleet layer splits device seeds.
struct Stream(u64);

impl Stream {
    fn new(seed: u64, purpose: u64, device: usize) -> Self {
        let mut state = splitmix64(&mut (seed ^ purpose)).wrapping_add(device as u64);
        // Start one step in: each draw mixes the state two increments
        // past the stream's base.
        splitmix64(&mut state);
        Stream(state)
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Bernoulli draw with probability `num / den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo).max(1)
    }
}

/// A deployment: the provisioned build, and whether the survival policy
/// steps. A static posture (always-Original, always-Reduced) is a
/// battery loop that is drained and never stepped.
type Deployment = (Version, bool);

/// Outcome of one device's charge-to-cutoff run.
struct DeviceLifetime {
    lifetime_days: f64,
    occupancy_ticks: [u64; 3],
    duty_skipped_windows: u64,
    reboots: u64,
    snapshot_mismatches: u64,
}

/// Integrate one device from full charge to cutoff.
///
/// The Gilbert–Elliott chain and brownout draws come from independent
/// per-device SplitMix64 streams; a manufacturing spread of ±2 % on the
/// draw current is applied identically across the three policies so the
/// comparison is paired.
fn run_device(
    (ceiling, stepped): Deployment,
    device: usize,
    seed: u64,
    draw: DrawTable,
    model: &EnergyModel,
    windows_per_tick: u64,
) -> DeviceLifetime {
    let cfg = SurvivalConfig::default();
    let mut link = Stream::new(seed, 0xA11CE, device);
    let mut faults = Stream::new(seed, 0xB0B, device);
    // ±2 % manufacturing spread, permille, shared across policies.
    let spread = Stream::new(seed, 0x5EED, device).range(980, 1021);
    let mut battery = BatteryLoop::new(SurvivalPolicy::new(cfg, ceiling), draw, model, spread);

    let mut bad_state = false;
    let mut duty_skipped_windows = 0u64;
    let mut reboots = 0u64;
    let mut snapshot_mismatches = 0u64;

    let mut tick = 0u32;
    while tick < MAX_TICKS {
        tick += 1;
        // Gilbert–Elliott at tick granularity: bursty minutes of bad
        // link, mostly-quiet otherwise.
        if bad_state {
            if link.chance(15, 100) {
                bad_state = false;
            }
        } else if link.chance(2, 100) {
            bad_state = true;
        }
        let badness_permille = if bad_state {
            link.range(450, 800) as u16
        } else {
            link.range(0, 60) as u16
        };

        // Brownout: the device reboots and the policy object is rebuilt
        // from its FRAM snapshot. Round-trip inequality is a bench
        // failure, counted and gated below.
        if faults.chance(1, 2000) {
            reboots += 1;
            let snap = battery.policy().snapshot();
            let policy = battery.policy_mut();
            *policy = SurvivalPolicy::new(cfg, ceiling);
            policy.restore(snap);
            if policy.snapshot() != snap {
                snapshot_mismatches += 1;
            }
        }

        // The tick runs at the posture in force: drain, then step on
        // the charge left.
        let (skip, of) = battery.policy().duty();
        duty_skipped_windows += windows_per_tick * u64::from(skip) / u64::from(of);
        battery.drain(TICK_S * 1000);
        if stepped {
            battery.step(badness_permille, 0);
        }
        if battery.is_cutoff() {
            break;
        }
    }

    DeviceLifetime {
        lifetime_days: f64::from(tick) * TICK_S as f64 / 86_400.0,
        occupancy_ticks: battery.occupancy_ticks(),
        duty_skipped_windows,
        reboots,
        snapshot_mismatches,
    }
}

/// Aggregate of one policy's fleet sweep.
struct PolicySweep {
    /// p5, p50 and p95 lifetime across the devices, days.
    days: [f64; 3],
    occupancy_frac: [f64; 3],
    duty_skipped_windows: u64,
    reboots: u64,
    snapshot_mismatches: u64,
}

fn run_policy(
    deployment: Deployment,
    devices: usize,
    seed: u64,
    draw: DrawTable,
    model: &EnergyModel,
    windows_per_tick: u64,
) -> PolicySweep {
    let runs: Vec<DeviceLifetime> = (0..devices)
        .map(|device| run_device(deployment, device, seed, draw, model, windows_per_tick))
        .collect();
    let mut lifetimes: Vec<f64> = runs.iter().map(|d| d.lifetime_days).collect();
    lifetimes.sort_by(f64::total_cmp);
    let total = |count: fn(&DeviceLifetime) -> u64| runs.iter().map(count).sum();
    let occupancy = [0, 1, 2].map(|v| runs.iter().map(|d| d.occupancy_ticks[v]).sum::<u64>());
    let total_ticks: u64 = occupancy.iter().sum();
    PolicySweep {
        days: [0.05, 0.50, 0.95].map(|p| percentile(&lifetimes, p)),
        occupancy_frac: occupancy.map(|t| t as f64 / total_ticks.max(1) as f64),
        duty_skipped_windows: total(|d| d.duty_skipped_windows),
        reboots: total(|d| d.reboots),
        snapshot_mismatches: total(|d| d.snapshot_mismatches),
    }
}

/// Survival-enabled stressed mini-fleet, run at each thread count; the
/// digest must not move with the schedule.
fn digest_gate(seed: u64) -> Result<u64, Failure> {
    let mut spec = FleetSpec::new(8, 30.0).with_seed(seed);
    spec.template = spec.template.with_reliability();
    spec.template.link.loss = Some(LossModel::GilbertElliott {
        p_good_to_bad: 0.05,
        p_bad_to_good: 0.25,
        loss_good: 0.01,
        loss_bad: 0.5,
    });
    spec.template.survival = Some(SurvivalConfig {
        min_dwell_ticks: 5,
        drain_scale: 120_000,
    });
    let models = enroll_fleet(&spec)?;
    let pass = |threads| {
        run_fleet_with_bank(&spec.clone().with_threads(threads), &models)
            .context(format!("fleet run failed at {threads} threads"))
    };
    Ok(thread_gate(&[1, 2, 8], FleetReport::digest, pass)?[0].digest())
}

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let flags = Flags::parse("lifetime", "--devices N --seed N --scale smoke|paper --out PATH")?;
    let devices = flags.get("--devices", 200)?;
    let seed = flags.get("--seed", 0xF1EE7)?;
    let scale = flags.choice("--scale", &[("smoke", Scale::Smoke), ("paper", Scale::Paper)])?;
    let scale_name = if scale == Scale::Paper { "paper" } else { "smoke" };
    let out: String = flags.get("--out", "results/BENCH_lifetime.json".into())?;
    let mut failures: Vec<String> = Vec::new();

    let model = EnergyModel::default();
    let config = SiftConfig::default();
    let draw = DrawTable::new(&model, &config, BackendKind::Svm);
    let full = |v| draw.draw_ua(v, (0, 1));
    println!(
        "per-version draw current: original {} uA, simplified {} uA, reduced {} uA \
         (baseline {} uA)",
        full(Version::Original),
        full(Version::Simplified),
        full(Version::Reduced),
        draw.baseline_ua()
    );

    println!(
        "lifetime sweep: {} devices x 3 policies, {} s ticks, seed {}",
        devices, TICK_S, seed
    );
    let windows_per_tick = (TICK_S as f64 / config.window_s) as u64;
    let policies = [
        ("always_original", (Version::Original, false)),
        ("always_reduced", (Version::Reduced, false)),
        ("adaptive", (Version::Original, true)),
    ];
    let sweep = Sweep {
        cells: policies.into(),
        axes: |&(name, _)| vec![("deployment", name.into())],
    };
    let swept = sweep.run(|&(name, deployment)| {
        let s = run_policy(deployment, devices, seed, draw, &model, windows_per_tick);
        println!(
            "  {name:<15} p5 {:>5.1} d, p50 {:>5.1} d, p95 {:>5.1} d ({} reboots survived)",
            s.days[0], s.days[1], s.days[2], s.reboots
        );
        Ok(s)
    })?;
    let [original, reduced, adaptive] = [&swept[0], &swept[1], &swept[2]];
    println!(
        "  adaptive occupancy: original {:.0}%, simplified {:.0}%, reduced {:.0}%",
        adaptive.occupancy_frac[0] * 100.0,
        adaptive.occupancy_frac[1] * 100.0,
        adaptive.occupancy_frac[2] * 100.0
    );

    let reduced_ratio = reduced.days[1] / original.days[1];
    let adaptive_ratio = adaptive.days[1] / original.days[1];
    println!(
        "  lifetime ratios vs always-original: reduced {reduced_ratio:.2}x, adaptive {adaptive_ratio:.2}x"
    );
    if !(1.7..=2.6).contains(&reduced_ratio) {
        failures.push(format!(
            "always-Reduced lifetime is {reduced_ratio:.2}x always-Original, outside the paper's ~2x band [1.7, 2.6]"
        ));
    }
    if adaptive_ratio < 1.5 {
        failures.push(format!(
            "adaptive lifetime is {adaptive_ratio:.2}x always-Original, below the 1.5x gate"
        ));
    }
    let total_mismatches: u64 = swept.iter().map(|s| s.snapshot_mismatches).sum();
    if total_mismatches > 0 {
        failures.push(format!(
            "{total_mismatches} survival snapshot round-trips did not restore bit-identically"
        ));
    }

    // Accuracy tradeoff: per-version detection accuracy (the Amulet
    // cells of Table II) weighted by the adaptive ladder's occupancy.
    println!("accuracy tradeoff (Table II machinery, {scale_name} scale):");
    let rows = run_table2(scale, &[PlatformFlavor::Amulet]).context("accuracy evaluation failed")?;
    let mut version_acc = [0.0f64; 3];
    for row in &rows {
        version_acc[row.version.index()] = row.result.averaged.accuracy;
    }
    let weighted_acc: f64 = version_acc
        .iter()
        .zip(adaptive.occupancy_frac)
        .map(|(a, f)| a * f)
        .sum();
    let acc_loss_pp = (version_acc[0] - weighted_acc) * 100.0;
    println!(
        "  accuracy: original {:.2}%, simplified {:.2}%, reduced {:.2}% -> adaptive (weighted) {:.2}%",
        version_acc[0] * 100.0,
        version_acc[1] * 100.0,
        version_acc[2] * 100.0,
        weighted_acc * 100.0
    );
    println!("  adaptive accuracy loss vs always-original: {acc_loss_pp:.2} pp");
    if acc_loss_pp > 2.0 {
        failures.push(format!(
            "adaptive policy loses {acc_loss_pp:.2} pp accuracy vs always-Original, above the 2 pp gate"
        ));
    }

    // Digest stability of the survival-enabled scenario fleet.
    let digest = digest_gate(seed).context("lifetime bench: FAIL")?;
    println!("survival fleet digest {digest:#018x} (identical at 1, 2, and 8 threads)");

    let per_version = |x: [f64; 3], decimals| {
        let names = ["original", "simplified", "reduced"];
        names.into_iter().zip(x.map(|v| Json::fixed(v, decimals)))
    };
    let mut fields = vec![
        ("devices", Json::num(devices)),
        ("seed", Json::num(seed)),
        ("tick_s", Json::num(TICK_S)),
        ("accuracy_scale", scale_name.into()),
    ];
    for (&(name, _), s) in policies.iter().zip(&swept) {
        let days = s.days.map(|d| Json::fixed(d, 3));
        let days = ["p5_days", "p50_days", "p95_days"].into_iter().zip(days);
        fields.push((name, Json::obj(days.chain([("reboots", Json::num(s.reboots))]))));
    }
    let accuracy = per_version(version_acc, 6).chain([
        ("adaptive_weighted", Json::fixed(weighted_acc, 6)),
        ("loss_pp", Json::fixed(acc_loss_pp, 4)),
    ]);
    fields.extend([
        ("reduced_vs_original", Json::fixed(reduced_ratio, 4)),
        ("adaptive_vs_original", Json::fixed(adaptive_ratio, 4)),
        ("adaptive_occupancy", Json::obj(per_version(adaptive.occupancy_frac, 4))),
        ("accuracy", Json::obj(accuracy)),
        ("duty_skipped_windows", Json::num(adaptive.duty_skipped_windows)),
        ("snapshot_mismatches", Json::num(total_mismatches)),
        ("digest", Json::hex(digest)),
    ]);
    let doc = Json::Obj(fields);
    write_artifact(&out, &doc.render())?;
    println!("wrote {out}");

    if failures.is_empty() {
        println!("lifetime bench: OK");
        Ok(())
    } else {
        let lines: Vec<String> =
            failures.iter().map(|f| format!("lifetime bench: FAIL {f}")).collect();
        fail(lines.join("\n"))
    }
}
