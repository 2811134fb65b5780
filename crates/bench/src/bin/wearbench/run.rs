//! `wearbench run`: one workload, once, with tracing off — warm-up,
//! set-up, then the timed engine calls — and the end-to-end metrics.
//!
//! The timed part is [`ROUNDS`] engine calls of a quarter of the
//! workload each. Round `k` runs on its own seed split from the run's
//! seed (round 0 on the seed itself), so no device repeats across
//! rounds and together they simulate the workload's full device count.
//! Throughput is the median over rounds, which keeps a burst of load
//! from another process on the host out of the result; the
//! modelled-device statistics are pooled over every device.
//!
//! Peak memory is the process's resident high-water mark after the run,
//! enrollment included. A per-round mark is no steadier: glibc keeps or
//! returns a few MiB of freed heap depending on thread timing, which
//! showed up as two modes 4 MiB apart on hostile-link.

use crate::workload::{Outcome, Workload};
use crate::{worker_threads, Metric, Opts, Report, WARM_UP_DEVICES};
use std::time::Instant;

/// Back-to-back enrollments whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;

/// Timed engine calls per run.
pub const ROUNDS: usize = 4;

/// Seed of timed round `k`: the run's seed, then SplitMix64-gamma
/// steps away from it.
pub fn round_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64))
}

/// Run `w` once and collect its end-to-end metrics. Any engine error or
/// failed check marks the report incorrect and every device failed.
pub fn run(w: &Workload, opts: &Opts) -> Report {
    let threads = worker_threads();
    let round_units = w.units(opts.scale / ROUNDS as f64);
    let mut rep = Report::new(w, "run", opts, ROUNDS * w.devices(round_units), threads);
    rep.meta("rounds", ROUNDS.to_string());
    let started = Instant::now();
    if let Err(e) = measure(w, opts, round_units, threads, &mut rep) {
        rep.check(format!("engine error: {e}"), false);
    }
    rep.meta(
        "run_wall_s",
        format!("{:.3}", started.elapsed().as_secs_f64()),
    );
    if !rep.correct {
        rep.failed = rep.attempted;
        rep.set("failed_ratio", 1.0, "fraction");
    }
    rep
}

fn measure(
    w: &Workload,
    opts: &Opts,
    round_units: usize,
    threads: usize,
    rep: &mut Report,
) -> Result<(), Box<dyn std::error::Error>> {
    let seed = opts.seed;

    // 1. Untimed warm-up, on an enrollment of its own. Every run enrolls
    //    at the workload's default seed, so set-up is the same work
    //    whatever `--seed` picks.
    let setup = w.enroll(w.default_seed)?;
    let warm_units = w.units_for(WARM_UP_DEVICES).min(round_units);
    w.run_engine(&setup, warm_units, threads, seed)?;

    // 2. Set-up: the median of back-to-back enrollments.
    let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut setup = setup;
    for _ in 0..repeats {
        let t = Instant::now();
        setup = w.enroll(w.default_seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Correctness of an unpinned run: the same fleet at 1/20 of the
    // workload must digest identically on one and on two workers. The
    // check is untimed, so it runs two workers even on a one-core host.
    let pinned = seed == w.default_seed && opts.scale == 1.0;
    if !pinned {
        let small = w.units(opts.scale / 20.0);
        let one = w.run_engine(&setup, small, 1, seed)?;
        let two = w.run_engine(&setup, small, 2, seed)?;
        rep.check(
            format!(
                "digest at 1/20 length: {:#018x} on 1 worker, {:#018x} on 2",
                one.digest, two.digest
            ),
            one.digest == two.digest,
        );
    }

    // 3. The timed rounds.
    let devices = w.devices(round_units);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for k in 0..ROUNDS {
        let t = Instant::now();
        let out = w.run_engine(&setup, round_units, threads, round_seed(seed, k))?;
        let wall_s = t.elapsed().as_secs_f64();
        if let Some((high_water, cap)) = out.window {
            rep.check(
                format!("round {k}: reorder window high water {high_water} of cap {cap}"),
                high_water <= cap,
            );
        }
        rep.check(
            format!(
                "round {k}: {} of {devices} devices retired",
                out.fleet.devices
            ),
            out.fleet.devices == devices,
        );
        rounds.push(Round { out, wall_s });
    }
    let walls: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    rep.meta("round_wall_s", walls.join(" "));
    let digests: Vec<u64> = rounds.iter().map(|r| r.out.digest).collect();
    if pinned {
        for (k, (&digest, want)) in digests.iter().zip(w.pinned_digests).enumerate() {
            rep.check(
                format!("round {k} digest {digest:#018x}, pinned {want:#018x}"),
                digest == want,
            );
        }
    }
    rep.digests = digests;
    rep.metrics = end_to_end(&rounds, crate::compare::median(&setup_s), peak_rss_mib()?);
    Ok(())
}

/// One timed engine call.
pub struct Round {
    pub out: Outcome,
    pub wall_s: f64,
}

/// The end-to-end metrics of a run's timed rounds.
pub fn end_to_end(rounds: &[Round], setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
    let throughputs: Vec<f64> = rounds
        .iter()
        .map(|r| r.out.fleet.simulated_device_s / r.wall_s)
        .collect();
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let devices = sum(&|r| r.out.fleet.devices as f64);
    let windows = sum(&|r| {
        let c = &r.out.fleet.confusion;
        (c.tp + c.fp + c.tn + c.fn_ + r.out.fleet.ambiguous_windows) as f64
    });
    let fp = sum(&|r| r.out.fleet.confusion.fp as f64);
    let tn = sum(&|r| r.out.fleet.confusion.tn as f64);
    let mut m = vec![
        Metric::new(
            "throughput",
            crate::compare::median(&throughputs),
            "device-s/s",
        ),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        Metric::new("failed_ratio", 0.0, "fraction"),
        Metric::new(
            "mcu_cycles_per_window",
            sum(&|r| r.out.fleet.usage.active_cycles) / windows,
            "cycles",
        ),
        Metric::new(
            "mcu_mah_per_device_hour",
            sum(&|r| r.out.fleet.usage.consumed_mah)
                / (sum(&|r| r.out.fleet.simulated_device_s) / 3600.0),
            "mAh",
        ),
        Metric::new("false_alarm_rate", fp / (fp + tn), "fraction"),
        Metric::new(
            "window_recovery",
            sum(&|r| r.out.fleet.mean_window_recovery * r.out.fleet.devices as f64) / devices,
            "fraction",
        ),
    ];
    let attacked: Option<Vec<(u64, u64)>> = rounds.iter().map(|r| r.out.attack_windows).collect();
    if let Some(attacked) = attacked {
        let tp: u64 = attacked.iter().map(|a| a.0).sum();
        let missed: u64 = attacked.iter().map(|a| a.1).sum();
        m.push(Metric::new(
            "attack_recall",
            tp as f64 / (tp + missed) as f64,
            "fraction",
        ));
    }
    m
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
