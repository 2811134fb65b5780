//! Extension figure: ROC analysis of the three detector versions — the
//! threshold-independent view behind Table II, plus operating points for
//! explicit false-alarm budgets.
//!
//! Run: `cargo run --release -p bench --bin roc` (accepts `--smoke`).

use bench::{Context, Failure, Scale};
use physio_sim::subject::bank;
use sift::analysis::{scored_evaluation, threshold_for_fpr};
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{train_models, EvalProtocol};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let scale = Scale::parse("roc")?;
    let subjects: Vec<_> = bank().into_iter().take(scale.subject_count()).collect();
    let config = scale.config();
    let protocol = EvalProtocol::default();

    println!(
        "ROC analysis ({:?} scale, amulet flavor, {} subjects)\n",
        scale,
        subjects.len()
    );
    for version in Version::ALL {
        let models = train_models(&subjects, version, &config).context("training failed")?;
        let ev = scored_evaluation(
            &subjects,
            &models,
            PlatformFlavor::Amulet,
            &config,
            &protocol,
        )
        .context("evaluation failed")?;
        println!("=== {version} ===");
        println!("  mean per-subject AUC : {:.4}", ev.mean_auc);
        let aucs: Vec<String> = ev
            .per_subject_auc
            .iter()
            .map(|(id, a)| format!("{id}:{a:.3}"))
            .collect();
        println!("  per subject          : {}", aucs.join("  "));
        for budget in [0.01, 0.05, 0.10] {
            match threshold_for_fpr(&ev.pooled_curve, budget) {
                Some(p) => println!(
                    "  at FP budget {:>4.0}%   : threshold {:+.3}, TP rate {:.1}%",
                    budget * 100.0,
                    p.threshold,
                    p.tpr * 100.0
                ),
                None => println!("  at FP budget {:>4.0}%   : unreachable", budget * 100.0),
            }
        }
        println!();
    }
    Ok(())
}
