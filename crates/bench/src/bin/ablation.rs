//! Ablation studies backing the paper's design choices:
//!
//! 1. **Classifier comparison** — the paper chose the SVM "as it
//!    performed the best among the algorithms we tried"; this reruns the
//!    comparison against logistic regression, k-NN and nearest centroid.
//! 2. **Grid size n** — the paper fixes n = 50 for matrix C.
//! 3. **Window length w** — the paper fixes w = 3 s.
//! 4. **Training length Δ** — the paper uses 20 min "as it works best".
//!
//! Run: `cargo run --release -p bench --bin ablation` (accepts `--smoke`
//! to shrink the sweeps further).

use bench::{Context, Failure, Json, Scale, Sweep};
use ml::baseline::{KnnClassifier, LogisticRegressionTrainer, NearestCentroid};
use ml::linear_svm::LinearSvmTrainer;
use ml::metrics::evaluate;
use ml::scaler::StandardScaler;
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{evaluate as evaluate_pipeline, EvalProtocol};
use sift::trainer::build_training_set;
use std::process::ExitCode;

fn ablation_config(train_s: f64) -> SiftConfig {
    SiftConfig {
        train_s,
        max_positive_per_donor: Some(20),
        ..SiftConfig::default()
    }
}

/// Classifier bake-off on one subject's training points, evaluated on a
/// held-out set built the same way from unseen records.
fn classifier_comparison(train_s: f64) {
    println!("=== ablation 1: classifier comparison (simplified features) ===");
    let subjects = bank();
    let config = ablation_config(train_s);
    let version = Version::Simplified;

    let build = |seed: u64| {
        let victim = Record::synthesize(&subjects[0], config.train_s, seed);
        let donors: Vec<Record> = (1..subjects.len())
            .map(|i| Record::synthesize(&subjects[i], config.train_s, seed + i as u64))
            .collect();
        let donor_refs: Vec<&Record> = donors.iter().collect();
        build_training_set(&victim, &donor_refs, version, &config).unwrap()
    };
    let train = build(1000);
    let test = build(9000);
    let scaler = StandardScaler::fit(&train).unwrap();
    let train_scaled = scaler.transform_dataset(&train).unwrap();
    let test_scaled = scaler.transform_dataset(&test).unwrap();

    let mut results: Vec<(&str, f64)> = Vec::new();
    let svm = LinearSvmTrainer::default().fit(&train_scaled).unwrap();
    results.push(("linear SVM", evaluate(&svm, &test_scaled).accuracy().unwrap()));
    let lr = LogisticRegressionTrainer::default().fit(&train_scaled).unwrap();
    results.push(("logistic regression", evaluate(&lr, &test_scaled).accuracy().unwrap()));
    let knn = KnnClassifier::new(5, train_scaled.clone()).unwrap();
    results.push(("5-NN", evaluate(&knn, &test_scaled).accuracy().unwrap()));
    let nc = NearestCentroid::fit(&train_scaled).unwrap();
    results.push(("nearest centroid", evaluate(&nc, &test_scaled).accuracy().unwrap()));

    for (name, acc) in &results {
        println!("  {name:<20} accuracy {:.2}%", acc * 100.0);
    }
    println!();
}

/// One parameter sweep of the Simplified Amulet pipeline over `axis`:
/// each cell's config comes from `config_for`, and a failed cell stops
/// the run, named by its axis value.
fn sweep(
    title: &str,
    axis: &'static str,
    values: &[usize],
    config_for: impl Fn(usize) -> SiftConfig,
    subjects: usize,
) -> Result<(), Failure> {
    println!("=== {title} ===");
    let bank = bank();
    let cells = Sweep {
        cells: values.iter().map(|&v| (axis, v)).collect(),
        axes: |&(axis, v)| vec![(axis, Json::num(v))],
    };
    cells.run(|&(_, v)| {
        let r = evaluate_pipeline(
            &bank[..subjects],
            Version::Simplified,
            PlatformFlavor::Amulet,
            &config_for(v),
            &EvalProtocol::default(),
        )
        .context("evaluation failed")?;
        println!(
            "  {v:>8}: accuracy {:.2}%  (fp {:.2}%, fn {:.2}%)",
            r.averaged.accuracy * 100.0,
            r.averaged.fp_rate * 100.0,
            r.averaged.fn_rate * 100.0
        );
        Ok(())
    })?;
    println!();
    Ok(())
}

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let smoke = Scale::parse("ablation")? == Scale::Smoke;
    let (train_s, subjects) = if smoke { (60.0, 3) } else { (300.0, 6) };

    classifier_comparison(train_s);

    sweep(
        "ablation 2: grid size n (simplified, amulet flavor)",
        "grid_n",
        &[10, 25, 50, 100],
        |n| SiftConfig {
            grid_n: n,
            ..ablation_config(train_s)
        },
        subjects,
    )?;

    sweep(
        "ablation 3: window length w seconds",
        "window_s",
        &[2, 3, 6],
        |w| SiftConfig {
            window_s: w as f64,
            ..ablation_config(train_s)
        },
        subjects,
    )?;

    sweep(
        "ablation 4: training length (seconds of wearer data)",
        "train_s",
        &[30, 60, 120, 300],
        |t| ablation_config(t as f64),
        subjects,
    )?;
    Ok(())
}
