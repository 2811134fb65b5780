//! Detector-zoo comparison: every registered backend × flavor rung,
//! measured on the axes the survival policy trades between — detection
//! accuracy, RAM/ROM footprint, profiler energy, and the observed
//! telemetry span cycles of a traced device session.
//!
//! Run: `cargo run --release -p bench --bin detector_zoo`
//!
//! Writes `results/DETECTOR_zoo.json`. Every field is deterministic
//! (seeded training, cost-model cycles, no wall clock), so
//! `scripts/verify.sh` treats any drift against the committed baseline
//! as a hard failure.
//!
//! Two gates run inline, mirroring the telemetry bench:
//!
//! * the observed classifier-stage span cycles of a traced session must
//!   equal the cost model's number for that backend (the SVM prices its
//!   float MAC, the Tsetlin machine its integer clause sweep);
//! * each backend's flavor ladder must be strictly monotone in model
//!   bytes, or the survival policy's reflash-down-the-ladder story is
//!   broken.

use amulet_sim::apps::SiftApp;
use amulet_sim::costs::{detector_cycles, tsetlin_classifier_cycles, OpCosts};
use amulet_sim::machine::App as _;
use amulet_sim::profiler::ResourceProfiler;
use amulet_sim::CPU_HZ;
use bench::{fail, traced_session, write_artifact, Context, Failure, Flags};
use ml::metrics::AveragedMetrics;
use ml::{BackendKind, DetectorBackend};
use physio_sim::subject::{bank, Subject};
use sift::config::SiftConfig;
use sift::detector::Detector;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{evaluate_detectors, train_models, EvalProtocol};
use sift::zoo::{train_backend_for_subject, tsetlin_pairs};
use std::fmt::Write as _;
use std::process::ExitCode;
use telemetry::{Stage, Telemetry};
use wiot::scenario::Scenario;

/// Smoke-scale protocol shared by every cell: 4 subjects, 1 minute of
/// training — small enough for the verify gate, seeded so the emitted
/// JSON is byte-stable.
const SUBJECTS: usize = 4;

fn zoo_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

/// One backend×flavor cell of the comparison.
struct ZooRow {
    backend: BackendKind,
    version: Version,
    metrics: AveragedMetrics,
    model_bytes: usize,
    app_fram_bytes: usize,
    app_sram_bytes: usize,
    system_fram_bytes: usize,
    classifier_cycles: f64,
    total_cycles: f64,
    avg_current_ua: f64,
    lifetime_days: f64,
    observed_classifier_cycles: u64,
    observed_spans: u64,
}

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let flags = Flags::parse("detector_zoo", "--out PATH")?;
    let out: String = flags.get("--out", "results/DETECTOR_zoo.json".into())?;
    let config = zoo_config();
    let protocol = EvalProtocol::default();
    let subjects: Vec<Subject> = bank().into_iter().take(SUBJECTS).collect();
    let profiler = ResourceProfiler::default();
    let costs = OpCosts::default();

    let mut rows: Vec<ZooRow> = Vec::new();
    for kind in BackendKind::ALL {
        for &version in Version::ALL.iter() {
            // Gold models drive feature extraction; the deployed model
            // of the cell's backend family does the device-side scoring.
            let gold = train_models(&subjects, version, &config)
                .context(format!("gold training failed for {version:?}"))?;
            let detectors = gold
                .into_iter()
                .enumerate()
                .map(|(i, gold)| {
                    let deployed =
                        train_backend_for_subject(&subjects, i, version, kind, &config, config.seed)
                            .context(format!("{kind:?} training failed for subject {i}"))?;
                    Detector::with_backend(gold, deployed, PlatformFlavor::Amulet, config.clone())
                        .context(format!("detector assembly failed for subject {i}"))
                })
                .collect::<Result<Vec<Detector>, Failure>>()?;
            let mut untraced = Telemetry::disabled();
            let metrics = evaluate_detectors(&subjects, &detectors, &protocol, &mut untraced)
                .context("backend evaluation failed")?
                .averaged;
            let deployed = detectors[0].deployed();

            // Static footprint + energy through the same app spec the
            // simulator deploys (name, cycles, and model bytes included).
            let app = SiftApp::new(version, deployed.clone(), config.clone())
                .context(format!("app assembly failed for {kind:?} {version:?}"))?;
            let spec = app.resource_spec();
            let profile = profiler.profile(&[&spec]);

            let mut model_cycles = detector_cycles(version, &config, &costs, 4.0);
            if kind == BackendKind::Tsetlin {
                model_cycles.ml_classifier = tsetlin_classifier_cycles(
                    version.feature_count(),
                    tsetlin_pairs(version) as usize,
                    &costs,
                );
            }

            // Observed spans from a traced device session must agree
            // with the model (the same gate the telemetry bench runs).
            let mut scenario = Scenario::new(0, version, 30.0);
            scenario.backend = kind;
            scenario.config = config.clone();
            scenario.seed = 0xD00D;
            let tele = traced_session(&scenario).context(format!("{kind:?} {version:?}"))?;
            let observed = tele.stage(Stage::Svm);
            if observed.spans == 0 {
                return fail(format!("{kind:?} {version:?}: traced session classified no windows"));
            }
            if observed.mean_units() != model_cycles.ml_classifier as u64 {
                return fail(format!(
                    "FAIL: {kind:?} {version:?} observed classifier mean {} cycles != model {}",
                    observed.mean_units(),
                    model_cycles.ml_classifier as u64
                ));
            }

            rows.push(ZooRow {
                backend: kind,
                version,
                metrics,
                model_bytes: deployed.footprint_bytes(),
                app_fram_bytes: profile.app_fram_bytes,
                app_sram_bytes: profile.app_sram_bytes,
                system_fram_bytes: profile.system_fram_bytes,
                classifier_cycles: model_cycles.ml_classifier,
                total_cycles: spec.cycles_per_period,
                avg_current_ua: profile.avg_current_ua,
                lifetime_days: profile.lifetime_days,
                observed_classifier_cycles: observed.mean_units(),
                observed_spans: observed.spans,
            });
        }
    }

    // Ladder gate: each backend's flavor ladder strictly shrinks the
    // total deployed FRAM image (system libs + app) and never grows the
    // model blob, so the survival policy always frees memory on reflash.
    for kind in BackendKind::ALL {
        let ladder: Vec<(usize, usize)> = rows
            .iter()
            .filter(|r| r.backend == kind)
            .map(|r| (r.system_fram_bytes + r.app_fram_bytes, r.model_bytes))
            .collect();
        let fram_ok = ladder.windows(2).all(|w| w[0].0 > w[1].0);
        let model_ok = ladder.windows(2).all(|w| w[0].1 >= w[1].1);
        if !fram_ok || !model_ok {
            return fail(format!("FAIL: {kind:?} flavor ladder is not monotone: {ladder:?}"));
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"source\": \"bench --bin detector_zoo\",");
    let _ = writeln!(
        json,
        "  \"protocol\": {{ \"subjects\": {SUBJECTS}, \"train_s\": {:.1}, \"test_s\": {:.1}, \
         \"altered_fraction\": {:.2}, \"seed\": {} }},",
        config.train_s, protocol.test_s, protocol.altered_fraction, config.seed
    );
    let _ = writeln!(json, "  \"cpu_hz\": {CPU_HZ:.1},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"backend\": \"{}\",", r.backend.id());
        let _ = writeln!(json, "      \"flavor\": \"{}\",", r.version);
        let _ = writeln!(json, "      \"accuracy\": {:.6},", r.metrics.accuracy);
        let _ = writeln!(json, "      \"f1\": {:.6},", r.metrics.f1);
        let _ = writeln!(json, "      \"fp_rate\": {:.6},", r.metrics.fp_rate);
        let _ = writeln!(json, "      \"fn_rate\": {:.6},", r.metrics.fn_rate);
        let _ = writeln!(json, "      \"model_bytes\": {},", r.model_bytes);
        let _ = writeln!(json, "      \"app_fram_bytes\": {},", r.app_fram_bytes);
        let _ = writeln!(json, "      \"app_sram_bytes\": {},", r.app_sram_bytes);
        let _ = writeln!(json, "      \"system_fram_bytes\": {},", r.system_fram_bytes);
        let _ = writeln!(json, "      \"classifier_cycles\": {:.1},", r.classifier_cycles);
        let _ = writeln!(json, "      \"total_cycles\": {:.1},", r.total_cycles);
        let _ = writeln!(json, "      \"total_ms\": {:.3},", r.total_cycles / CPU_HZ * 1000.0);
        let _ = writeln!(json, "      \"avg_current_ua\": {:.2},", r.avg_current_ua);
        let _ = writeln!(json, "      \"lifetime_days\": {:.1},", r.lifetime_days);
        let _ = writeln!(
            json,
            "      \"observed_classifier_cycles\": {},",
            r.observed_classifier_cycles
        );
        let _ = writeln!(json, "      \"observed_spans\": {}", r.observed_spans);
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");

    println!(
        "| {:<8} | {:<10} | {:>7} | {:>11} | {:>9} | {:>8} |",
        "Backend", "Flavor", "Acc", "Model bytes", "uA avg", "Days"
    );
    println!("|{}|", "-".repeat(70));
    for r in &rows {
        println!(
            "| {:<8} | {:<10} | {:>6.2}% | {:>11} | {:>9.2} | {:>8.1} |",
            r.backend.id(),
            r.version.to_string(),
            r.metrics.accuracy * 100.0,
            r.model_bytes,
            r.avg_current_ua,
            r.lifetime_days
        );
    }

    write_artifact(&out, &json)?;
    println!("\nwrote {out}");
    Ok(())
}
