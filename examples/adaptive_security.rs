//! Adaptive security (paper Insight #4): a decision engine — the
//! survival policy — that watches the battery drain and hot-swaps
//! between the three detector versions, instead of the paper's manual
//! re-flashing.
//!
//! Two acts:
//!
//! 1. **Open loop** — fast-forward a whole-battery deployment on the
//!    [`wiot::adaptive::BatteryLoop`]: each simulated second drains the
//!    battery by the active posture's draw current
//!    ([`wiot::adaptive::DrawTable`]), then steps the policy on the
//!    charge left, and the policy switches when thresholds are crossed.
//!    The static baseline is the same loop, drained and never stepped.
//! 2. **Closed loop** — run the full sample-level scenario with the
//!    [`wiot::survival`] policy engaged and an accelerated battery, and
//!    watch the policy walk the degradation ladder live: reflashing the
//!    detector, thinning the sensor duty cycle, and tightening the ARQ
//!    retry budget, every decision recorded in the report.
//!
//! Run: `cargo run --release --example adaptive_security`

use amulet_sim::energy::EnergyModel;
use ml::BackendKind;
use sift::config::SiftConfig;
use sift::features::Version;
use wiot::adaptive::{BatteryLoop, DrawTable};
use wiot::scenario::{run, Scenario};
use wiot::survival::{SurvivalAction, SurvivalConfig, SurvivalPolicy};

fn main() {
    let config = SiftConfig::default();
    let energy = EnergyModel::default();
    let draw = DrawTable::new(&energy, &config, BackendKind::Svm);

    println!(
        "per-version draw current (baseline {} uA) and static lifetime (capacity / draw):",
        draw.baseline_ua()
    );
    for version in Version::ALL {
        let ua = draw.draw_ua(version, (0, 1));
        println!(
            "  {:<11} {:>4} uA  {:>5.1} days",
            version.to_string(),
            ua,
            energy.lifetime_days(ua as f64)
        );
    }

    // Real-time drain (1000 permille of the table's current), one
    // policy tick a second on a clean link.
    let policy = SurvivalPolicy::new(SurvivalConfig::default(), Version::Original);
    let mut adaptive = BatteryLoop::new(policy, draw, &energy, 1000);
    // The static Original baseline: the same loop, never stepped.
    let mut fixed = adaptive.clone();
    let mut static_s = 0u64;
    while !fixed.is_cutoff() {
        fixed.drain(1000);
        static_s += 1;
    }

    println!("\nadaptive deployment phases:");
    let days = |s: u64| s as f64 / 86_400.0;
    let (mut from_s, mut now_s) = (0u64, 0u64);
    while !adaptive.is_cutoff() {
        let version = adaptive.policy().version();
        adaptive.drain(1000);
        now_s += 1;
        if adaptive.step(0, 0).version.is_some() || adaptive.is_cutoff() {
            println!(
                "  day {:>5.2} .. {:>5.2}: {version}",
                days(from_s),
                days(now_s)
            );
            from_s = now_s;
        }
    }
    println!(
        "\nbattery at cutoff after {:.2} days with adaptive switching \
         (static original: {:.2} days, {:.2}x)",
        days(now_s),
        days(static_s),
        now_s as f64 / static_s as f64
    );

    closed_loop();
}

/// Act two: the survival policy closing the loop inside a live
/// scenario. The battery drain is accelerated 60 000× so a 60 s session
/// traverses the whole discharge curve — on the real device this arc
/// spans weeks.
fn closed_loop() {
    let mut scenario = Scenario::new(0, Version::Original, 60.0).with_reliability();
    scenario.survival = Some(SurvivalConfig {
        min_dwell_ticks: 5,
        drain_scale: 60_000,
    });

    println!("\nclosed-loop survival policy (60 s session, 60 000x drain):");
    let report = run(&scenario).expect("scenario runs");
    let sr = report.survival.expect("survival enabled");
    for action in &sr.actions {
        match *action {
            SurvivalAction::SetVersion { at_tick, from, to } => {
                println!("  t={at_tick:>3}s reflash {from} -> {to}");
            }
            SurvivalAction::SetDuty { at_tick, skip, of } => {
                println!(
                    "  t={at_tick:>3}s duty cycle: keep {}/{of} windows",
                    of - skip
                );
            }
            SurvivalAction::SetRetry {
                at_tick,
                max_retries,
                backoff_extra_shift,
            } => {
                println!(
                    "  t={at_tick:>3}s retry budget: {max_retries} tries, +{backoff_extra_shift} backoff doublings"
                );
            }
        }
    }
    println!(
        "  {} version switches, {} chunks duty-skipped, {} s under low battery",
        sr.version_switches, report.faults.duty_skipped_chunks, report.faults.low_battery_ticks
    );
    let names = ["original", "simplified", "reduced"];
    let occupancy: Vec<String> = names
        .iter()
        .zip(sr.occupancy_ticks)
        .map(|(n, t)| format!("{n} {t}s"))
        .collect();
    println!("  occupancy: {}", occupancy.join(", "));
    match sr.cutoff_at_ms {
        Some(ms) => println!(
            "  battery cutoff at t={:.0}s on {} ({} permille left)",
            ms as f64 / 1000.0,
            sr.final_version,
            sr.final_soc_permille
        ),
        None => println!(
            "  session ended on {} with {} permille left",
            sr.final_version, sr.final_soc_permille
        ),
    }
    println!(
        "  detection through it all: {} windows scored, {} dropped",
        report.confusion.total(),
        report.dropped_windows
    );
}
