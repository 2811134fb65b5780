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
//!    Table II machinery (Amulet flavor), weighted by the adaptive
//!    policy's version occupancy. Duty-cycle skips cost *coverage*, not
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
    fail, run_table2, splitmix64, thread_gate, write_artifact, Context, Failure, Flags, Scale,
};
use ml::BackendKind;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::trainer::ModelBank;
use std::fmt::Write as _;
use std::process::ExitCode;
use wiot::adaptive::{version_index, BatteryLoop, DrawTable};
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
    p5_days: f64,
    p50_days: f64,
    p95_days: f64,
    occupancy_frac: [f64; 3],
    duty_skipped_windows: u64,
    reboots: u64,
    snapshot_mismatches: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn sweep(
    deployment: Deployment,
    devices: usize,
    seed: u64,
    draw: DrawTable,
    model: &EnergyModel,
    windows_per_tick: u64,
) -> PolicySweep {
    let mut lifetimes = Vec::with_capacity(devices);
    let mut occupancy = [0u64; 3];
    let mut duty_skipped = 0u64;
    let mut reboots = 0u64;
    let mut mismatches = 0u64;
    for device in 0..devices {
        let d = run_device(deployment, device, seed, draw, model, windows_per_tick);
        lifetimes.push(d.lifetime_days);
        for (acc, t) in occupancy.iter_mut().zip(d.occupancy_ticks) {
            *acc += t;
        }
        duty_skipped += d.duty_skipped_windows;
        reboots += d.reboots;
        mismatches += d.snapshot_mismatches;
    }
    lifetimes.sort_by(f64::total_cmp);
    let total_ticks: u64 = occupancy.iter().sum();
    let occupancy_frac = occupancy.map(|t| t as f64 / total_ticks.max(1) as f64);
    PolicySweep {
        p5_days: percentile(&lifetimes, 0.05),
        p50_days: percentile(&lifetimes, 0.50),
        p95_days: percentile(&lifetimes, 0.95),
        occupancy_frac,
        duty_skipped_windows: duty_skipped,
        reboots,
        snapshot_mismatches: mismatches,
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
    let models = ModelBank::train(
        &bank(),
        spec.template.version,
        &spec.template.config,
        spec.seed,
    )
    .context("enrollment failed")?;
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
    let [original, reduced, adaptive] = [
        (Version::Original, false),
        (Version::Reduced, false),
        (Version::Original, true),
    ]
    .map(|deployment| sweep(deployment, devices, seed, draw, &model, windows_per_tick));
    for (name, s) in [
        ("always-original", &original),
        ("always-reduced", &reduced),
        ("adaptive", &adaptive),
    ] {
        println!(
            "  {name:<15} p5 {:>5.1} d, p50 {:>5.1} d, p95 {:>5.1} d ({} reboots survived)",
            s.p5_days, s.p50_days, s.p95_days, s.reboots
        );
    }
    println!(
        "  adaptive occupancy: original {:.0}%, simplified {:.0}%, reduced {:.0}%",
        adaptive.occupancy_frac[0] * 100.0,
        adaptive.occupancy_frac[1] * 100.0,
        adaptive.occupancy_frac[2] * 100.0
    );

    let reduced_ratio = reduced.p50_days / original.p50_days;
    let adaptive_ratio = adaptive.p50_days / original.p50_days;
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
    let total_mismatches = original.snapshot_mismatches
        + reduced.snapshot_mismatches
        + adaptive.snapshot_mismatches;
    if total_mismatches > 0 {
        failures.push(format!(
            "{total_mismatches} survival snapshot round-trips did not restore bit-identically"
        ));
    }

    // Accuracy tradeoff: per-version detection accuracy (Amulet flavor)
    // weighted by the adaptive ladder's occupancy.
    println!("accuracy tradeoff (Table II machinery, {scale_name} scale):");
    let rows = run_table2(scale).context("accuracy evaluation failed")?;
    let mut version_acc = [0.0f64; 3];
    for row in rows
        .iter()
        .filter(|r| r.flavor == PlatformFlavor::Amulet)
    {
        version_acc[version_index(row.version)] = row.metrics.accuracy;
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

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"devices\": {},", devices);
    let _ = writeln!(json, "  \"seed\": {},", seed);
    let _ = writeln!(json, "  \"tick_s\": {TICK_S},");
    let _ = writeln!(json, "  \"accuracy_scale\": \"{scale_name}\",");
    for (name, s) in [
        ("always_original", &original),
        ("always_reduced", &reduced),
        ("adaptive", &adaptive),
    ] {
        let _ = writeln!(
            json,
            "  \"{name}\": {{ \"p5_days\": {:.3}, \"p50_days\": {:.3}, \"p95_days\": {:.3}, \"reboots\": {} }},",
            s.p5_days, s.p50_days, s.p95_days, s.reboots
        );
    }
    let _ = writeln!(json, "  \"reduced_vs_original\": {reduced_ratio:.4},");
    let _ = writeln!(json, "  \"adaptive_vs_original\": {adaptive_ratio:.4},");
    let _ = writeln!(
        json,
        "  \"adaptive_occupancy\": {{ \"original\": {:.4}, \"simplified\": {:.4}, \"reduced\": {:.4} }},",
        adaptive.occupancy_frac[0], adaptive.occupancy_frac[1], adaptive.occupancy_frac[2]
    );
    let _ = writeln!(
        json,
        "  \"accuracy\": {{ \"original\": {:.6}, \"simplified\": {:.6}, \"reduced\": {:.6}, \"adaptive_weighted\": {:.6}, \"loss_pp\": {:.4} }},",
        version_acc[0], version_acc[1], version_acc[2], weighted_acc, acc_loss_pp
    );
    let _ = writeln!(
        json,
        "  \"duty_skipped_windows\": {},",
        adaptive.duty_skipped_windows
    );
    let _ = writeln!(json, "  \"snapshot_mismatches\": {total_mismatches},");
    let _ = writeln!(json, "  \"digest\": \"{digest:#018x}\"");
    json.push_str("}\n");
    write_artifact(&out, &json)?;
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
