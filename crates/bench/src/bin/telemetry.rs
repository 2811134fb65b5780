//! Telemetry gates and the per-stage pipeline table (Table III
//! analogue).
//!
//! Run: `cargo run --release -p bench --bin telemetry -- --devices 6
//! --duration 9 --seed 11`
//!
//! Three jobs, in gate order:
//!
//! 1. **Digest invariance (hard gate)**: runs the same fleet at 1/2/8
//!    worker threads with the telemetry sink off and on. All six
//!    digests must be byte-identical and the merged telemetry must be
//!    thread-count-stable; any mismatch exits non-zero, which
//!    `scripts/verify.sh` treats as a hard failure.
//! 2. **Overhead (warn only)**: times the disabled-sink record hot
//!    path. The disabled handle is one niche-optimized pointer and
//!    every record call is a single `None` branch, so this should sit
//!    near a nanosecond per op; wall-clock noise makes it advisory.
//! 3. **Pipeline table**: for Original/Simplified/Reduced, the cost
//!    model's per-stage MSP430 cycles (and the derived ms @ 16 MHz,
//!    average current, lifetime) next to the *observed* per-stage span
//!    statistics from a traced single-device session — every stage
//!    must record spans whose mean cycles equal the model, or the table
//!    is lying.
//!
//! Writes `results/TELEMETRY_pipeline.json` and a per-device NDJSON
//! trace to `results/TELEMETRY_trace.ndjson`.

use amulet_sim::costs::{detector_cycles, OpCosts};
use amulet_sim::energy::EnergyModel;
use amulet_sim::CPU_HZ;
use bench::{
    enroll_fleet, fail, observed_stage, thread_gate, traced_session, write_artifact, Context,
    Failure, Flags, Json, Sweep,
};
use sift::features::Version;
use std::process::ExitCode;
use std::time::Instant;
use telemetry::{GaugeId, Stage, Telemetry};
use wiot::fleet::{run_fleet_with_bank, FleetReport, FleetSpec};
use wiot::scenario::Scenario;

/// Time one record-hot-path iteration (a gauge set plus a stage span)
/// against `tele`, in ns/op.
fn record_path_ns_per_op(tele: &mut Telemetry, iters: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        let tele = std::hint::black_box(&mut *tele);
        tele.gauge_set(GaugeId::BatteryPermille, i as i64);
        tele.span(i, Stage::Svm, 7);
    }
    std::hint::black_box(&mut *tele);
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Hard gate: the frozen fleet digest must be byte-identical with the
/// sink off and on, at every thread count, and the merged telemetry
/// must not depend on the thread count either.
fn check_digest_invariance(spec: &FleetSpec) -> Result<(u64, usize), Failure> {
    let models = enroll_fleet(spec)?;
    let run = |threads: usize, telemetry_on: bool| -> Result<FleetReport, Failure> {
        let run_spec = spec.clone().with_threads(threads).with_telemetry(telemetry_on);
        let report = run_fleet_with_bank(&run_spec, &models)
            .context(format!("fleet run failed ({threads} threads, telemetry {telemetry_on})"))?;
        println!(
            "  {} threads, telemetry {:>3}: digest {:#018x}",
            threads,
            if telemetry_on { "on" } else { "off" },
            report.digest()
        );
        Ok(report)
    };
    // Each pass runs the sink off, then on; the sink-on report is the pass.
    let pass = |threads| {
        let off = run(threads, false)?.digest();
        let on = run(threads, true)?;
        if off != on.digest() {
            return fail(format!("FAIL: the telemetry sink moved the digest at {threads} threads"));
        }
        Ok(on)
    };
    let passes = thread_gate(&[1, 2, 8], FleetReport::digest, pass).context("FAIL: fleet")?;
    if passes.iter().any(|r| r.telemetry != passes[0].telemetry) {
        return fail("FAIL: merged fleet telemetry is not thread-count-stable");
    }
    // Every emitted or salvaged window was scored or ambiguous.
    let fleet = &passes[0];
    let windows = fleet.confusion.total() + fleet.ambiguous_windows - fleet.salvaged_windows;
    Ok((fleet.digest(), windows))
}

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let spec = "--devices N --duration SECONDS --seed N --iters N --out-json PATH --out-trace PATH";
    let flags = Flags::parse("telemetry", spec)?;
    let (devices, duration_s) = (flags.get("--devices", 6)?, flags.get("--duration", 9.0)?);
    let iters = flags.get("--iters", 2_000_000)?;
    let out_json: String = flags.get("--out-json", "results/TELEMETRY_pipeline.json".into())?;
    let out_trace: String = flags.get("--out-trace", "results/TELEMETRY_trace.ndjson".into())?;

    println!("digest invariance gate ({devices} devices x {duration_s:.0} s):");
    let spec = FleetSpec::new(devices, duration_s).with_seed(flags.get("--seed", 11)?);
    let (digest, fleet_windows) = check_digest_invariance(&spec)?;

    // Overhead: disabled sink (the production default) vs enabled.
    let disabled_ns = record_path_ns_per_op(&mut Telemetry::disabled(), iters);
    let enabled_ns = record_path_ns_per_op(&mut Telemetry::enabled(), iters);
    println!(
        "record hot path: disabled {disabled_ns:.2} ns/op, enabled {enabled_ns:.2} ns/op"
    );
    const DISABLED_WARN_NS: f64 = 25.0;
    let overhead_ok = disabled_ns <= DISABLED_WARN_NS;
    if !overhead_ok {
        println!(
            "WARN: disabled record path {disabled_ns:.2} ns/op exceeds {DISABLED_WARN_NS:.0} ns \
             (advisory only — wall-clock noise)"
        );
    }

    // Per-stage pipeline table: cost model vs observed spans.
    let energy = EnergyModel::default();
    let ms = |cycles: f64| cycles / CPU_HZ * 1000.0;
    let mut trace = String::new();
    let sweep = Sweep {
        cells: Version::ALL.into(),
        axes: |v| vec![("version", Json::Str(format!("{v:?}")))],
    };
    let tables = sweep.run(|&version| {
        let mut scenario = Scenario::new(0, version, 30.0);
        scenario.seed = 0xC0FFEE + version.index() as u64;
        let tele = traced_session(&scenario)?;
        let model = detector_cycles(version, &scenario.config, &OpCosts::default(), 4.0);
        let window_s = scenario.config.window_s;
        let total = model.total();
        let avg_ua = energy.average_current_for_cycles_ua(total, window_s);
        let lifetime = energy.lifetime_days(avg_ua);

        println!("\n{version:?}: {total:.0} cycles/window -> {:.1} ms @ 16 MHz, {avg_ua:.1} uA avg, {lifetime:.0} days",
            ms(total));
        let mut stages = Vec::new();
        for (stage, cycles) in [
            (Stage::PeakDetection, model.peaks_data_check),
            (Stage::FeatureExtraction, model.feature_extraction),
            (Stage::Svm, model.ml_classifier),
        ] {
            let observed = observed_stage(&tele, stage, cycles)?;
            println!(
                "  {:<18} model {:>12.0} cycles ({:>8.3} ms)   observed {} spans, mean {} cycles",
                stage.name(),
                cycles,
                ms(cycles),
                observed.spans,
                observed.mean_units()
            );
            stages.push(Json::obj([
                ("stage", stage.name().into()),
                ("model_cycles", Json::fixed(cycles, 1)),
                ("model_ms", Json::fixed(ms(cycles), 4)),
                ("observed_spans", Json::num(observed.spans)),
                ("observed_mean_cycles", Json::num(observed.mean_units())),
            ]));
        }

        // The NDJSON trace carries every version's session back to back
        // (each meta line restates the snapshot it heads).
        trace.push_str(&telemetry::export::ndjson(&tele));
        Ok(vec![
            ("window_s", Json::fixed(window_s, 1)),
            ("total_cycles", Json::fixed(total, 1)),
            ("total_ms", Json::fixed(ms(total), 3)),
            ("avg_current_ua", Json::fixed(avg_ua, 2)),
            ("lifetime_days", Json::fixed(lifetime, 1)),
            ("stages", Json::Arr(stages)),
        ])
    })?;
    let overhead = Json::obj([
        ("disabled_ns_per_op", Json::fixed(disabled_ns, 3)),
        ("enabled_ns_per_op", Json::fixed(enabled_ns, 3)),
        ("warn_threshold_ns", Json::fixed(DISABLED_WARN_NS, 1)),
        ("within_threshold", Json::num(overhead_ok)),
    ]);
    let doc = Json::obj([
        ("source", "bench --bin telemetry".into()),
        ("cpu_hz", Json::fixed(CPU_HZ, 1)),
        ("fleet_digest", Json::hex(digest)),
        ("fleet_windows_emitted", Json::num(fleet_windows)),
        ("overhead", overhead),
        ("versions", sweep.rows(&tables, Vec::clone)),
    ]);

    write_artifact(&out_json, &doc.render())?;
    write_artifact(&out_trace, &trace)?;
    println!("\nwrote {out_json} and {out_trace}");
    println!("telemetry gates passed (digest {digest:#018x})");
    Ok(())
}
