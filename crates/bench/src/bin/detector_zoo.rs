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
use bench::{
    fail, observed_stage, traced_session, write_artifact, Context, Failure, Flags, Json, Sweep,
};
use ml::{BackendKind, DetectorBackend, DetectorModel};
use physio_sim::subject::{bank, Subject};
use sift::config::SiftConfig;
use sift::detector::Detector;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{evaluate_detectors, train_models, EvalProtocol};
use sift::trainer::{ModelBank, SiftModel};
use sift::zoo::tsetlin_pairs;
use std::process::ExitCode;
use telemetry::Stage;
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

    let sweep = Sweep {
        cells: BackendKind::ALL.iter().flat_map(|&kind| Version::ALL.map(|v| (kind, v))).collect(),
        axes: |&(kind, version)| {
            vec![("backend", kind.id().into()), ("flavor", Json::Str(version.to_string()))]
        },
    };
    println!(
        "| {:<8} | {:<10} | {:>7} | {:>11} | {:>9} | {:>8} |",
        "Backend", "Flavor", "Acc", "Model bytes", "uA avg", "Days"
    );
    println!("|{}|", "-".repeat(70));
    // Each cell: its backend, its ladder point (deployed FRAM image,
    // model bytes) and its artifact row.
    let cells = sweep.run(|&(kind, version)| {
        // The deployed models of the cell's backend family do the
        // device-side scoring; gold SVM models drive feature extraction.
        // An SVM bank carries its own gold models.
        let bank = ModelBank::train_backend(&subjects, version, kind, &config, config.seed)
            .context("enrollment failed")?;
        let gold: Vec<SiftModel> = if kind == BackendKind::Svm {
            (0..bank.len()).filter_map(|i| bank.get(i)).map(|m| SiftModel::clone(m)).collect()
        } else {
            train_models(&subjects, version, &config).context("gold training failed")?
        };
        let detectors = gold
            .into_iter()
            .zip((0..bank.len()).filter_map(|i| bank.deployed(i)))
            .map(|(gold, deployed)| {
                let deployed = DetectorModel::clone(deployed);
                Detector::with_backend(gold, deployed, PlatformFlavor::Amulet, config.clone())
                    .context("detector assembly failed")
            })
            .collect::<Result<Vec<Detector>, Failure>>()?;
        let m = evaluate_detectors(&subjects, &detectors, &protocol)
            .context("backend evaluation failed")?
            .averaged;
        let deployed = detectors[0].deployed();

        // Static footprint + energy through the same app spec the
        // simulator deploys (name, cycles, and model bytes included).
        let app = SiftApp::new(version, deployed.clone(), config.clone())
            .context("app assembly failed")?;
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
        let observed =
            observed_stage(&traced_session(&scenario)?, Stage::Svm, model_cycles.ml_classifier)?;

        let model_bytes = deployed.footprint_bytes();
        println!(
            "| {:<8} | {:<10} | {:>6.2}% | {:>11} | {:>9.2} | {:>8.1} |",
            kind.id(),
            version.to_string(),
            m.accuracy * 100.0,
            model_bytes,
            profile.avg_current_ua,
            profile.lifetime_days
        );
        let ladder = (profile.system_fram_bytes + profile.app_fram_bytes, model_bytes);
        let row = vec![
            ("accuracy", Json::fixed(m.accuracy, 6)),
            ("f1", Json::fixed(m.f1, 6)),
            ("fp_rate", Json::fixed(m.fp_rate, 6)),
            ("fn_rate", Json::fixed(m.fn_rate, 6)),
            ("model_bytes", Json::num(model_bytes)),
            ("app_fram_bytes", Json::num(profile.app_fram_bytes)),
            ("app_sram_bytes", Json::num(profile.app_sram_bytes)),
            ("system_fram_bytes", Json::num(profile.system_fram_bytes)),
            ("classifier_cycles", Json::fixed(model_cycles.ml_classifier, 1)),
            ("total_cycles", Json::fixed(spec.cycles_per_period, 1)),
            ("total_ms", Json::fixed(spec.cycles_per_period / CPU_HZ * 1000.0, 3)),
            ("avg_current_ua", Json::fixed(profile.avg_current_ua, 2)),
            ("lifetime_days", Json::fixed(profile.lifetime_days, 1)),
            ("observed_classifier_cycles", Json::num(observed.mean_units())),
            ("observed_spans", Json::num(observed.spans)),
        ];
        Ok((kind, ladder, row))
    })?;

    // Ladder gate: each backend's flavor ladder strictly shrinks the
    // total deployed FRAM image (system libs + app) and never grows the
    // model blob, so the survival policy always frees memory on reflash.
    for kind in BackendKind::ALL {
        let ladder: Vec<(usize, usize)> =
            cells.iter().filter(|c| c.0 == kind).map(|c| c.1).collect();
        let fram_ok = ladder.windows(2).all(|w| w[0].0 > w[1].0);
        let model_ok = ladder.windows(2).all(|w| w[0].1 >= w[1].1);
        if !fram_ok || !model_ok {
            return fail(format!("FAIL: {kind:?} flavor ladder is not monotone: {ladder:?}"));
        }
    }

    let doc = Json::obj([
        ("source", "bench --bin detector_zoo".into()),
        (
            "protocol",
            Json::obj([
                ("subjects", Json::num(SUBJECTS)),
                ("train_s", Json::fixed(config.train_s, 1)),
                ("test_s", Json::fixed(protocol.test_s, 1)),
                ("altered_fraction", Json::fixed(protocol.altered_fraction, 2)),
                ("seed", Json::num(config.seed)),
            ]),
        ),
        ("cpu_hz", Json::fixed(CPU_HZ, 1)),
        ("rows", sweep.rows(&cells, |c| c.2.clone())),
    ]);
    write_artifact(&out, &doc.render())?;
    println!("\nwrote {out}");
    Ok(())
}
